// Package canonjson reads the canonical JSON that encoding/json writes
// for a fixed Go type, without reflection per decode, and declines
// everything else. Type-specific decoders live next to the types they
// decode and drive a Reader by hand; Unmarshal runs one and, when it
// declines, hands the input to encoding/json unchanged. A decoder that
// accepts an input therefore returns exactly the value encoding/json
// would have, and one that declines costs only the bytes it scanned
// before giving up. AppendString and AppendBase64 write a string and a
// []byte exactly as encoding/json does, for encoders written by hand.
//
// A Reader accepts only this subset of what encoding/json's Marshal
// writes:
//
//   - whitespace between tokens;
//   - object members in struct declaration order, each at most once,
//     with omitted members left zero;
//   - map members in strictly ascending key order;
//   - strings of valid UTF-8 without control bytes below 0x20, with
//     their escapes decoded as encoding/json decodes them, except a \u
//     escape naming a UTF-16 surrogate;
//   - integers without a fraction, exponent, leading zero or minus
//     zero, range-checked for the target type;
//   - standard base64 for []byte;
//   - null where the caller allows it (a nil slice, map or pointer).
//
// Anything else — invalid UTF-8, surrogate escapes, unknown, duplicate,
// reordered or case-variant keys, floats, trailing bytes — declines:
// encoding/json repairs the first two (to U+FFFD or a surrogate pair)
// and accepts the rest under rules the Reader does not guess at.
// Every decoded string and []byte is a copy, so a value never aliases
// (or pins) the input buffer.
package canonjson

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Reader walks one JSON document. Reads never fail loudly: the first
// input a read cannot accept marks the Reader declined, and every later
// read returns a zero or empty value without consuming input, so a
// decoder reads straight through and checks the outcome once, through
// Decode.
type Reader struct {
	buf      []byte
	off      int
	declined bool
	scratch  []byte // decoded contents of the last string that had escapes or non-ASCII bytes
}

// Decode runs dec over data and reports whether it accepted the whole
// input: no read declined and nothing but whitespace follows the
// value. When it returns false, *v holds a partial value.
func Decode[T any](data []byte, v *T, dec func(*Reader, *T)) bool {
	r := Reader{buf: data}
	dec(&r, v)
	if r.declined {
		return false
	}
	r.space()
	return r.off == len(r.buf)
}

// Unmarshal decodes data into v with dec, falling back to
// json.Unmarshal on a zeroed *v when dec declines — so the result, and
// any error, are exactly encoding/json's.
func Unmarshal[T any](data []byte, v *T, dec func(*Reader, *T)) error {
	if Decode(data, v, dec) {
		return nil
	}
	var zero T
	*v = zero
	return json.Unmarshal(data, v)
}

// Keys returns the JSON member names of the struct type T in
// declaration order, the order encoding/json writes them in: each
// field's json tag name, or the field name when the tag gives none.
// Index i of the result is field i of T, so a decoder passes the result
// to Object and switches on field indexes. It panics on a field
// encoding/json would not write under its own name in its own place
// (unexported, embedded, or tagged "-"). Decoders call it once, when
// their package initializes.
func Keys[T any]() []string {
	t := reflect.TypeFor[T]()
	keys := make([]string, t.NumField())
	for i := range keys {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || f.Anonymous || name == "-" {
			panic("canonjson: " + t.String() + "." + f.Name + " is not a plain JSON member")
		}
		if name == "" {
			name = f.Name
		}
		keys[i] = name
	}
	return keys
}

// Byte classes: JSON whitespace, and the bytes a string may hold
// without an escape (ASCII from 0x20, less the quote and backslash).
var spaceByte, plainByte [256]bool

// escapes maps the byte after a backslash to the byte it stands for,
// for every JSON escape but \u; zero marks the rest.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

func init() {
	for _, c := range " \t\n\r" {
		spaceByte[c] = true
	}
	for c := 0x20; c < 0x80; c++ {
		plainByte[c] = c != '"' && c != '\\'
	}
}

// space skips JSON whitespace. MarshalIndent output is mostly
// indentation, so this loop is the Reader's hottest.
func (r *Reader) space() {
	i, buf := r.off, r.buf
	for i < len(buf) && spaceByte[buf[i]] {
		i++
	}
	r.off = i
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input or once declined.
func (r *Reader) peek() byte {
	if r.declined {
		return 0
	}
	r.space()
	if r.off == len(r.buf) {
		return 0
	}
	return r.buf[r.off]
}

// expect consumes the byte c, declining when the next byte is another.
func (r *Reader) expect(c byte) bool {
	if r.peek() != c {
		r.declined = true
		return false
	}
	r.off++
	return true
}

// literal consumes the keyword lit when it comes next.
func (r *Reader) literal(lit string) bool {
	if r.peek() != lit[0] || len(r.buf)-r.off < len(lit) || string(r.buf[r.off:r.off+len(lit)]) != lit {
		return false
	}
	r.off += len(lit)
	return true
}

// Null consumes a null and reports whether one came next. A decoder
// calls it only where encoding/json writes null: a nil slice, map or
// pointer.
func (r *Reader) Null() bool { return r.literal("null") }

// text reads a string token and returns its decoded contents. A token
// of plain bytes, which is every key and nearly every value the vault
// writes, comes back aliasing the input; any other is decoded into
// r.scratch, which the next such token overwrites. Callers copy what
// they keep.
func (r *Reader) text() []byte {
	if !r.expect('"') {
		return nil
	}
	i, buf := r.off, r.buf
	for i < len(buf) && plainByte[buf[i]] {
		i++
	}
	if i < len(buf) && buf[i] == '"' {
		s := buf[r.off:i]
		r.off = i + 1
		return s
	}
	return r.unquote(i)
}

// unquote decodes the rest of the string token whose plain prefix ends
// at buf[i]: multi-byte UTF-8 is copied and escapes are decoded, as
// encoding/json does. It declines what encoding/json rejects (a
// control byte, a malformed escape, a missing closing quote) and what
// it repairs rather than copies (a byte that is not valid UTF-8, a \u
// escape naming a surrogate).
func (r *Reader) unquote(i int) []byte {
	buf := r.buf
	out := append(r.scratch[:0], buf[r.off:i]...)
	for i < len(buf) {
		c := buf[i]
		switch {
		case c == '"':
			r.scratch = out
			r.off = i + 1
			return out
		case plainByte[c]:
			out = append(out, c)
			i++
		case c == '\\':
			e, n := escape(buf[i+1:])
			if n == 0 {
				r.declined = true
				return nil
			}
			out = utf8.AppendRune(out, e)
			i += 1 + n
		case c >= utf8.RuneSelf:
			e, n := utf8.DecodeRune(buf[i:])
			if e == utf8.RuneError && n == 1 {
				r.declined = true
				return nil
			}
			out = append(out, buf[i:i+n]...)
			i += n
		default:
			r.declined = true
			return nil
		}
	}
	r.declined = true
	return nil
}

// escape decodes the escape sequence s begins with (the bytes after a
// backslash), returning its rune and length, or a zero length when the
// sequence is malformed or a \u escape names a surrogate.
func escape(s []byte) (rune, int) {
	if len(s) == 0 {
		return 0, 0
	}
	if e := escapes[s[0]]; e != 0 {
		return rune(e), 1
	}
	if s[0] != 'u' || len(s) < 5 {
		return 0, 0
	}
	var e rune
	for _, c := range s[1:5] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, 0
		}
		e = e<<4 | rune(c)
	}
	if utf16.IsSurrogate(e) {
		return 0, 0
	}
	return e, 5
}

// AppendString appends s as encoding/json writes a string: quoted,
// escaping quotes, backslashes, control bytes, <, > and &, U+2028,
// U+2029 and invalid UTF-8. Printable ASCII that needs no escape is
// copied as is; any other string takes encoding/json's own path.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte[c] || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendBase64 appends b as encoding/json writes a non-nil []byte: its
// standard padded base64, quoted.
func AppendBase64(dst, b []byte) []byte {
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

// Str reads a string into new memory.
func (r *Reader) Str() string { return string(r.text()) }

// AppendStr reads a string and appends its decoded bytes to dst.
func (r *Reader) AppendStr(dst []byte) []byte { return append(dst, r.text()...) }

// Intern reads a string and returns the element of known it equals,
// allocating a copy only when it equals none of them.
func (r *Reader) Intern(known ...string) string {
	s := r.text()
	for _, k := range known {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}

// Bytes reads a []byte: null is nil, "" is empty but not nil, and
// anything else must be standard padded base64, decoded into a slice
// of exactly its length.
func (r *Reader) Bytes() []byte {
	if r.Null() {
		return nil
	}
	return r.AppendBytes([]byte{})
}

// AppendBytes reads a []byte that is not null, a string of standard
// padded base64, and appends its decoded bytes to dst.
func (r *Reader) AppendBytes(dst []byte) []byte {
	s := r.text()
	if r.declined {
		return dst
	}
	b, err := base64.StdEncoding.AppendDecode(dst, s)
	if err != nil {
		r.declined = true
		return dst
	}
	return b
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	if r.literal("true") {
		return true
	}
	if !r.literal("false") {
		r.declined = true
	}
	return false
}

// number reads an integer token: an optional minus sign, then "0" or a
// digit string without a leading zero, with no fraction or exponent.
// It returns the sign and the magnitude, declining when the magnitude
// overflows a uint64 or the token is minus zero.
func (r *Reader) number() (neg bool, mag uint64) {
	if r.peek() == '-' {
		neg = true
		r.off++
	}
	if r.declined {
		return false, 0
	}
	start := r.off
	for ; r.off < len(r.buf); r.off++ {
		c := r.buf[r.off]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if mag > math.MaxUint64/10 || mag == math.MaxUint64/10 && d > math.MaxUint64%10 {
			r.declined = true
			return false, 0
		}
		mag = mag*10 + d
	}
	n := r.off - start
	if n == 0 || n > 1 && r.buf[start] == '0' || neg && mag == 0 {
		r.declined = true
		return false, 0
	}
	if r.off < len(r.buf) {
		if c := r.buf[r.off]; c == '.' || c == 'e' || c == 'E' {
			r.declined = true
			return false, 0
		}
	}
	return neg, mag
}

// signed reads an integer in [lo, hi].
func (r *Reader) signed(lo, hi int64) int64 {
	neg, mag := r.number()
	switch {
	case neg && mag <= uint64(-(lo+1))+1:
		return int64(-mag)
	case !neg && mag <= uint64(hi):
		return int64(mag)
	}
	r.declined = true
	return 0
}

// unsigned reads a non-negative integer no larger than hi.
func (r *Reader) unsigned(hi uint64) uint64 {
	neg, mag := r.number()
	if neg || mag > hi {
		r.declined = true
		return 0
	}
	return mag
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.signed(math.MinInt, math.MaxInt)) }

// Int32 reads an int32.
func (r *Reader) Int32() int32 { return int32(r.signed(math.MinInt32, math.MaxInt32)) }

// Uint64 reads a uint64, all 20 digits of it.
func (r *Reader) Uint64() uint64 { return r.unsigned(math.MaxUint64) }

// Uint8 reads a uint8.
func (r *Reader) Uint8() uint8 { return uint8(r.unsigned(math.MaxUint8)) }

// Object reads an object whose keys are a subsequence of keys — the
// struct's JSON names in declaration order — calling field with each
// member's index into keys. field must read the member's value. An
// unknown, repeated or out-of-order key declines.
func (r *Reader) Object(keys []string, field func(i int)) {
	next := 0
	r.members(func(k []byte) {
		i := next
		for i < len(keys) && string(k) != keys[i] {
			i++
		}
		if i == len(keys) {
			r.declined = true
			return
		}
		next = i + 1
		field(i)
	})
}

// Map reads a map[string]V, or null as a nil map: an object whose keys
// ascend strictly in byte order, the order encoding/json writes a map
// in. val reads each value.
func Map[V any](r *Reader, val func(*Reader) V) map[string]V {
	if r.Null() {
		return nil
	}
	m := map[string]V{}
	var prev string
	r.members(func(k []byte) {
		if len(m) > 0 && string(k) <= prev {
			r.declined = true
			return
		}
		prev = string(k)
		m[prev] = val(r)
	})
	return m
}

// members reads an object, calling member with each decoded key once
// its colon is consumed; member must read the value, and the key is
// valid only until it does.
func (r *Reader) members(member func(key []byte)) {
	if !r.expect('{') {
		return
	}
	if r.peek() == '}' {
		r.off++
		return
	}
	for !r.declined {
		k := r.text()
		if !r.expect(':') {
			return
		}
		member(k)
		if !r.more('}') {
			return
		}
	}
}

// Slice reads a []V, or null as a nil slice; val reads each element.
func Slice[V any](r *Reader, val func(*Reader) V) []V {
	if r.Null() {
		return nil
	}
	s := []V{}
	r.Array(func() { s = append(s, val(r)) })
	return s
}

// Array reads an array, calling elem once per element; elem must read
// the element.
func (r *Reader) Array(elem func()) {
	if !r.expect('[') {
		return
	}
	if r.peek() == ']' {
		r.off++
		return
	}
	for !r.declined {
		elem()
		if !r.more(']') {
			return
		}
	}
}

// more consumes the separator after a member or element: a comma
// (true, another follows) or the closing byte (false, done).
func (r *Reader) more(closing byte) bool {
	switch r.peek() {
	case ',':
		r.off++
		return true
	case closing:
		r.off++
		return false
	}
	r.declined = true
	return false
}
