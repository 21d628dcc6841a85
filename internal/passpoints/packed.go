package passpoints

import (
	"encoding/binary"
	"encoding/json"
	"strconv"

	"clickpass/internal/canonjson"
	"clickpass/internal/geom"
)

// Packed is one record in a single immutable allocation: the form the
// vault keeps for every account. It holds every field of the Record it
// was packed from, the distinction between a nil and an empty slice
// and a kind other than the two constants included, so Record rebuilds
// a record whose Marshal bytes equal the original's. The zero Packed
// stands for no record (a nil *Record).
//
// The layout is the Record's fields in declaration order. Every int32
// is a zigzag varint, and each clear is its two offsets and its grid
// byte. The user, clears, salt and digest follow a uvarint of one more
// than their length, or 0 for a nil slice. KindCentered and KindRobust
// are the codes 0 and 1; any other kind of n bytes is the code n+2 and
// its bytes. For servebench's five-click accounts that is about 80
// bytes, against 248 for a Record and the four allocations it points
// to.
type Packed struct{ s string }

// Kind codes in the packed layout.
const (
	kindCentered = iota
	kindRobust
	kindOther // plus the length of the kind's bytes, which follow
)

// Pack packs rec into one new allocation; a nil rec packs to the zero
// Packed. The result shares no memory with rec.
func Pack(rec *Record) Packed {
	if rec == nil {
		return Packed{}
	}
	return pack(rec.User, rec)
}

// pack packs rec under the user name user: rec.User, or the name
// ReadPacked read into a buffer.
func pack[S string | []byte](user S, rec *Record) Packed {
	var stack [128]byte
	b := appendLen(stack[:0], len(user), false)
	b = append(b, user...)
	b = appendKind(b, rec.Kind)
	b = appendInt32(b, rec.SquareSidePx)
	b = appendInt32(b, rec.ImageW)
	b = appendInt32(b, rec.ImageH)
	b = appendLen(b, len(rec.Clears), rec.Clears == nil)
	for _, c := range rec.Clears {
		b = append(appendInt32(appendInt32(b, c.DX), c.DY), c.Grid)
	}
	b = appendLen(b, len(rec.Salt), rec.Salt == nil)
	b = append(b, rec.Salt...)
	b = appendInt32(b, rec.Iterations)
	b = appendLen(b, len(rec.Digest), rec.Digest == nil)
	b = append(b, rec.Digest...)
	return Packed{string(b)}
}

// appendLen appends the length prefix of a field of n elements: one
// more than n, or 0 for a nil slice.
func appendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendKind(b []byte, kind SchemeKind) []byte {
	switch kind {
	case KindCentered:
		return append(b, kindCentered)
	case KindRobust:
		return append(b, kindRobust)
	}
	b = binary.AppendUvarint(b, kindOther+uint64(len(kind)))
	return append(b, kind...)
}

func appendInt32(b []byte, v int32) []byte { return binary.AppendVarint(b, int64(v)) }

// IsZero reports whether p is the zero Packed, which holds no record.
func (p Packed) IsZero() bool { return p.s == "" }

// User returns the record's user name without allocating: it shares
// p's memory, so a map keyed by it costs no second copy of the name.
func (p Packed) User() string {
	if p.s == "" {
		return ""
	}
	d := unpacker{s: p.s}
	return d.str(d.count())
}

// Record rebuilds the record p holds, or nil for the zero Packed. The
// caller owns the result: its user and kind share p's immutable
// memory, and its clears, salt and digest are fresh allocations, the
// clears at exactly their count.
func (p Packed) Record() *Record {
	if p.s == "" {
		return nil
	}
	rec := new(Record)
	p.unpack(rec)
	return rec
}

// unpack decodes p, which is not zero, into rec, which is: its clears
// into a new slice of exactly their count, and its salt and digest
// into one new allocation.
func (p Packed) unpack(rec *Record) {
	d := unpacker{s: p.s}
	rec.User = d.str(d.count())
	rec.Kind = d.kind()
	rec.SquareSidePx, rec.ImageW, rec.ImageH = d.int32(), d.int32(), d.int32()
	if n, ok := d.slice(); ok {
		rec.Clears = make([]ClearID, n)
		for i := range rec.Clears {
			rec.Clears[i] = ClearID{DX: d.int32(), DY: d.int32(), Grid: d.byte()}
		}
	}
	ns, saltOK := d.slice()
	salt := d.str(ns)
	rec.Iterations = d.int32()
	nd, digestOK := d.slice()
	digest := d.str(nd)
	if saltOK || digestOK {
		buf := make([]byte, ns+nd)
		copy(buf, salt)
		copy(buf[ns:], digest)
		if saltOK {
			rec.Salt = buf[:ns:ns]
		}
		if digestOK {
			rec.Digest = buf[ns:]
		}
	}
}

// unpacker reads a Packed's fields in order. A Packed is only ever
// built by Pack or ReadPacked, so it does no bounds checking of its
// own.
type unpacker struct {
	s   string
	off int
}

func (d *unpacker) byte() byte {
	c := d.s[d.off]
	d.off++
	return c
}

func (d *unpacker) uvarint() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		c := d.byte()
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

func (d *unpacker) kind() SchemeKind {
	switch k := d.uvarint(); k {
	case kindCentered:
		return KindCentered
	case kindRobust:
		return KindRobust
	default:
		return SchemeKind(d.str(int(k - kindOther)))
	}
}

func (d *unpacker) int32() int32 {
	u := d.uvarint()
	return int32(int64(u>>1) ^ -int64(u&1))
}

// slice reads a slice's count prefix: its length, and false for nil.
func (d *unpacker) slice() (int, bool) {
	n := d.uvarint()
	if n == 0 {
		return 0, false
	}
	return int(n - 1), true
}

// count reads the length of the user name, which is never nil.
func (d *unpacker) count() int {
	n, _ := d.slice()
	return n
}

func (d *unpacker) str(n int) string {
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

// VerifyPacked checks a login attempt against a packed record through
// Verify, so both give the same answer and error for one record (the
// zero Packed is a nil record). The record it hands Verify lives on
// the stack; only the clears, salt and digest are copied out of p.
func VerifyPacked(cfg Config, p Packed, clicks []geom.Point) (bool, error) {
	if p.s == "" {
		return Verify(cfg, nil, clicks)
	}
	var rec Record
	p.unpack(&rec)
	return Verify(cfg, &rec, clicks)
}

// AppendJSON appends the JSON of the record p holds, the bytes
// Record.Marshal writes for it, to b, straight from the packed form;
// the zero Packed is null.
func (p Packed) AppendJSON(b []byte) []byte {
	if p.s == "" {
		return append(b, "null"...)
	}
	d := unpacker{s: p.s}
	b = canonjson.AppendString(append(b, `{"user":`...), d.str(d.count()))
	b = canonjson.AppendString(append(b, `,"kind":`...), string(d.kind()))
	b = strconv.AppendInt(append(b, `,"square_side_px":`...), int64(d.int32()), 10)
	b = strconv.AppendInt(append(b, `,"image_w":`...), int64(d.int32()), 10)
	b = strconv.AppendInt(append(b, `,"image_h":`...), int64(d.int32()), 10)
	b = append(b, `,"clears":`...)
	if n, ok := d.slice(); !ok {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range n {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"dx":`...), int64(d.int32()), 10)
			b = strconv.AppendInt(append(b, `,"dy":`...), int64(d.int32()), 10)
			b = strconv.AppendUint(append(b, `,"grid":`...), uint64(d.byte()), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = d.appendBytesJSON(append(b, `,"salt":`...))
	b = strconv.AppendInt(append(b, `,"iterations":`...), int64(d.int32()), 10)
	b = d.appendBytesJSON(append(b, `,"digest":`...))
	return append(b, '}')
}

// appendBytesJSON reads a []byte field and appends it as encoding/json
// writes one.
func (d *unpacker) appendBytesJSON(b []byte) []byte {
	n, ok := d.slice()
	if !ok {
		return append(b, "null"...)
	}
	return canonjson.AppendBase64(b, []byte(d.str(n)))
}

// MarshalJSON encodes the record p holds exactly as Record.Marshal
// does, and the zero Packed as null (see AppendJSON), so a Packed field
// or slice encodes to the bytes its records would.
func (p Packed) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil), nil }

// UnmarshalJSON decodes a record, or null as the zero Packed, as
// encoding/json decodes a *Record, and packs it: the fallback behind
// ReadPacked when that declines.
func (p *Packed) UnmarshalJSON(data []byte) error {
	var rec *Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return err
	}
	*p = Pack(rec)
	return nil
}

// ReadPacked reads a record, or null as the zero Packed, straight into
// its packed form without reflection: the canonjson decoder every
// vault load path shares. The fields are read into a record and
// buffers on the stack, so the one allocation is the result. It
// accepts the input a Record decoder would, and returns Pack of that
// record.
func ReadPacked(r *canonjson.Reader) Packed {
	if r.Null() {
		return Packed{}
	}
	var (
		rec                Record
		user, salt, digest [64]byte
		clears             [DefaultClicks]ClearID
	)
	name := user[:0]
	r.Object(recordKeys, func(i int) {
		switch i {
		case 0:
			name = r.AppendStr(user[:0])
		case 1:
			rec.Kind = SchemeKind(r.Intern(string(KindCentered), string(KindRobust)))
		case 2:
			rec.SquareSidePx = r.Int32()
		case 3:
			rec.ImageW = r.Int32()
		case 4:
			rec.ImageH = r.Int32()
		case 5:
			rec.Clears = readClears(r, clears[:0])
		case 6:
			rec.Salt = readBytes(r, salt[:0])
		case 7:
			rec.Iterations = r.Int32()
		case 8:
			rec.Digest = readBytes(r, digest[:0])
		}
	})
	return pack(name, &rec)
}

// readBytes reads a []byte, or null as nil, appending it to buf.
func readBytes(r *canonjson.Reader, buf []byte) []byte {
	if r.Null() {
		return nil
	}
	return r.AppendBytes(buf)
}

// readClears reads the clear identifiers, or null as nil, appending
// them to buf.
func readClears(r *canonjson.Reader, buf []ClearID) []ClearID {
	if r.Null() {
		return nil
	}
	r.Array(func() {
		var c ClearID
		r.Object(clearKeys, func(i int) {
			switch i {
			case 0:
				c.DX = r.Int32()
			case 1:
				c.DY = r.Int32()
			case 2:
				c.Grid = r.Uint8()
			}
		})
		buf = append(buf, c)
	})
	return buf
}
