package vault

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"clickpass/internal/canonjson"
	"clickpass/internal/passpoints"
)

// decodesLikeJSON checks one reflection-free decoder against
// encoding/json on data: dec must decline, or accept input
// encoding/json accepts and return a reflect.DeepEqual value. It
// returns that value and whether dec accepted.
func decodesLikeJSON[T any](t *testing.T, data []byte, dec func(*canonjson.Reader, *T)) (T, bool) {
	t.Helper()
	var fast T
	if !canonjson.Decode(data, &fast, dec) {
		return fast, false
	}
	var ref T
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("%T decoder accepted input encoding/json rejects (%v): %q", ref, err, data)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("%T decoder disagrees with encoding/json on %q:\n got %#v\nwant %#v", ref, data, fast, ref)
	}
	return fast, true
}

// encodesLikeJSON checks the hand-written record encoder against
// encoding/json: a packed record's AppendJSON must write the bytes
// json.Marshal writes for its record.
func encodesLikeJSON(t *testing.T, p passpoints.Packed) {
	t.Helper()
	if got, want := p.AppendJSON(nil), mustMarshal(t, p.Record()); string(got) != string(want) {
		t.Fatalf("hand-written encoding\n%s\nencoding/json\n%s", got, want)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readPacked adapts passpoints.ReadPacked to canonjson.Decode.
func readPacked(r *canonjson.Reader, p *passpoints.Packed) { *p = passpoints.ReadPacked(r) }

// canonRecords covers the record shapes the decoder must take on its
// fast path: every field set, robust grids, negative values, an
// unknown kind, nil against empty slices, and user names encoding/json
// escapes (quotes, control bytes, <, >, &, U+2028) or writes as
// multi-byte UTF-8.
func canonRecords(t testing.TB) []*passpoints.Record {
	full := &passpoints.Record{
		User: "alice", Kind: passpoints.KindCentered, SquareSidePx: 13, ImageW: 451, ImageH: 331,
		Clears:     []passpoints.ClearID{{DX: 1, DY: -2, Grid: 0}, {DX: math.MinInt32, DY: math.MaxInt32, Grid: 255}},
		Salt:       []byte("0123456789abcdef"),
		Iterations: 1000,
		Digest:     []byte("0123456789abcdef0123456789abcdef"),
	}
	allFieldsSet(t, *full)
	return []*passpoints.Record{
		full,
		{User: "robust", Kind: passpoints.KindRobust, SquareSidePx: 36, Clears: []passpoints.ClearID{{Grid: 2}, {Grid: 1}}, Iterations: 1, Digest: []byte{1}},
		{User: "negative", Kind: "other", SquareSidePx: -1, ImageW: -451, ImageH: -331, Iterations: -5, Clears: []passpoints.ClearID{{DX: -7, DY: -8}}},
		{User: "nil"},
		{User: "empty", Clears: []passpoints.ClearID{}, Salt: []byte{}, Digest: []byte{}},
		{User: "zoë <admin> & 密码 😀", Kind: passpoints.KindCentered, SquareSidePx: 13},
		{User: "q\"\\\n\x01" + string(rune(0x2028)), Kind: passpoints.KindRobust, SquareSidePx: 36},
	}
}

// canonEntries returns one log entry per op, with the fields the store
// writes for it (zero fields omitted), the generation markers earlier
// releases wrote (20-digit ids), and one entry with every field set.
func canonEntries(t testing.TB) []walEntry {
	rec := passpoints.Pack(canonRecords(t)[0])
	every := walEntry{Op: walOpPut, User: "u", Rec: rec, Failures: 3, Key: "k", Val: []byte("v"), Ckpt: math.MaxUint64, Full: true}
	allFieldsSet(t, every)
	return []walEntry{
		{Op: walOpPut, Rec: rec},
		{Op: walOpDel, User: "alice"},
		{Op: walOpLock, User: "alice", Failures: 9},
		{Op: walOpLock, User: "alice"},
		{Op: walOpKV, Key: "session/key", Val: []byte{0, 1, 2}},
		{Op: walOpKV, Key: "session/key"},
		{Op: walOpCkpt, Ckpt: math.MaxUint64},
		{Op: walOpCkpt, Ckpt: 10000000000000000000, Full: true},
		every,
	}
}

// allFieldsSet fails unless every field of the struct v is non-zero, so
// a field added to a stored type without a decoder case reaches the
// coverage test below as a fallback instead of passing unnoticed.
func allFieldsSet(t testing.TB, v any) {
	t.Helper()
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("fixture leaves %T.%s zero; set it so the decoder must cover it", v, rv.Type().Field(i).Name)
		}
	}
}

// TestCanonicalDecodeCoversStoredTypes: everything the vault writes as
// JSON — snapshots, and the log entries of every op that releases
// before binary payloads wrote — must decode on the reflection-free
// path, to the value encoding/json would produce. Without this, a new
// field would silently send every load to the slow path.
func TestCanonicalDecodeCoversStoredTypes(t *testing.T) {
	recs := canonRecords(t)
	for _, rec := range recs {
		data, _ := json.Marshal(rec)
		if _, ok := decodesLikeJSON(t, data, readPacked); !ok {
			t.Errorf("record fell back: %s", data)
		}
		encodesLikeJSON(t, passpoints.Pack(rec))
	}
	for _, snap := range [][]*passpoints.Record{recs, {}, nil} {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodesLikeJSON(t, data, readSnapshot); !ok {
			t.Errorf("snapshot fell back: %s", data)
		}
	}
	for _, e := range canonEntries(t) {
		payload := mustMarshal(t, e)
		if _, ok := decodesLikeJSON(t, payload, readWalEntry); !ok {
			t.Errorf("%s entry fell back: %s", e.Op, payload)
		}
	}
}

// TestParseRecordsRightSizesRecords: decoded records carry their
// clicks at exact capacity and the Kind constants, not copies.
func TestParseRecordsRightSizesRecords(t *testing.T) {
	data, err := json.Marshal(canonRecords(t)[:2])
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range recs {
		r := p.Record()
		if cap(r.Clears) != len(r.Clears) {
			t.Errorf("%s: clears len %d cap %d", r.User, len(r.Clears), cap(r.Clears))
		}
		if unsafe.StringData(string(r.Kind)) != unsafe.StringData(string(passpoints.KindCentered)) &&
			unsafe.StringData(string(r.Kind)) != unsafe.StringData(string(passpoints.KindRobust)) {
			t.Errorf("%s: kind %q is a copy, not a Kind constant", r.User, r.Kind)
		}
	}
}

// FuzzCanonicalDecode: for arbitrary bytes, every reflection-free
// decoder of a vault format — record, snapshot, JSON log entry — either
// declines or returns exactly encoding/json's value, and never accepts
// what encoding/json rejects; a record it accepts encodes back by hand
// to exactly encoding/json's bytes.
func FuzzCanonicalDecode(f *testing.F) {
	for _, seed := range openSeeds {
		f.Add(seed)
	}
	recs := canonRecords(f)
	snap, _ := json.MarshalIndent(recs, "", "  ")
	f.Add(snap)
	rec, _ := json.Marshal(recs[0])
	f.Add(rec)
	for _, e := range canonEntries(f) {
		payload, _ := json.Marshal(e)
		f.Add(payload)
	}
	for _, variant := range []string{
		`[{"us\u0065r":"a","kind":"centered"}]`,
		`[{"kind":"centered","user":"a"}]`,
		`[{"User":"a"}]`,
		`[{"user":"a","user":"b"}]`,
		`[{"user":"a","iterations":1.0}]`,
		`[{"user":"a","iterations":1e3}]`,
		`[{"user":"a","clears":null,"salt":null,"digest":null}]`,
		"[{\"user\":\"\xff\"}]",
		`[{"user":"a","clears":[{"dx":-0,"grid":256}]}]`,
		`[{"user":"a","clears":[{"dx":2147483647},{"dx":-2147483648}]}]`,
		`[{"user":"a","clears":[{"dx":2147483648}]}]`,
		`[{"user":"a","iterations":-2147483649}]`,
		`{"op":"put","user":"","rec":null}`,
		`{"op":"ckpt","ckpt":18446744073709551616}`,
	} {
		f.Add([]byte(variant))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, ok := decodesLikeJSON(t, data, readPacked); ok {
			encodesLikeJSON(t, p)
		}
		decodesLikeJSON(t, data, readSnapshot)
		decodesLikeJSON(t, data, readWalEntry)
	})
}
