package passpoints

import (
	"math"
	"strings"
	"testing"
)

// TestParsePackedAcceptsPackBytes: ParsePacked returns Pack's bytes for
// every record that names a user — nil against empty slices, an
// unknown kind, the int32 bounds, escaped and non-ASCII names — and a
// record of the shape the server stores costs one allocation.
func TestParsePackedAcceptsPackBytes(t *testing.T) {
	stored := &Record{
		User: "u9999", Kind: KindCentered, SquareSidePx: 13, ImageW: 451, ImageH: 331,
		Clears:     []ClearID{{DX: 12, DY: 40}, {DX: 71, DY: 3}, {DX: 36, DY: 36}, {DX: 5, DY: 66}, {DX: 58, DY: 21}},
		Salt:       []byte("0123456789abcdef"),
		Iterations: 1000,
		Digest:     []byte("0123456789abcdef0123456789abcdef"),
	}
	for _, rec := range []*Record{
		stored,
		{User: "bounds", Kind: KindRobust, SquareSidePx: math.MaxInt32, ImageW: math.MinInt32, Clears: []ClearID{{DX: math.MinInt32, DY: math.MaxInt32, Grid: 255}}, Iterations: -1},
		{User: "empty", Clears: []ClearID{}, Salt: []byte{}, Digest: []byte{}},
		{User: "nil"},
		{User: "other", Kind: "weird"},
		{User: "q\"\\\n\x01 zoë <admin> & 密码 😀"},
	} {
		want := Pack(rec)
		got, err := ParsePacked([]byte(want.s))
		if err != nil || got != want {
			t.Errorf("%q: ParsePacked(Pack) = %q, %v", rec.User, got.s, err)
		}
	}
	data := []byte(Pack(stored).s)
	if n := testing.AllocsPerRun(100, func() { _, _ = ParsePacked(data) }); n != 1 {
		t.Errorf("ParsePacked of a stored record makes %v allocations, want 1", n)
	}
}

// TestParsePackedRefusesOtherBytes: anything but Pack's own bytes for a
// record with a user is refused — every other spelling of the same
// record, a record without a user, and input cut short, run on or with
// lengths and varints past its end.
func TestParsePackedRefusesOtherBytes(t *testing.T) {
	// Pack of {User: "a", Kind: KindCentered, SquareSidePx: 13}: the
	// user's length plus one, the user, kind code 0, zigzag 13, then
	// six zero fields.
	const good = "\x02a\x00\x1a\x00\x00\x00\x00\x00\x00"
	if p, err := ParsePacked([]byte(good)); err != nil || p != Pack(&Record{User: "a", Kind: KindCentered, SquareSidePx: 13}) {
		t.Fatalf("the fixture does not parse: %q, %v", p.s, err)
	}
	for name, in := range map[string]string{
		"empty":              "",
		"nil user":           "\x00\x00\x1a\x00\x00\x00\x00\x00\x00",
		"empty user":         "\x01\x00\x1a\x00\x00\x00\x00\x00\x00",
		"non-minimal varint": "\x02a\x00\x9a\x00\x00\x00\x00\x00\x00\x00",
		"kind spelled out":   "\x02a\x0acentered\x1a\x00\x00\x00\x00\x00\x00",
		"int32 overflow":     "\x02a\x00\x80\x80\x80\x80\x10\x00\x00\x00\x00\x00\x00",
		"truncated":          good[:len(good)-1],
		"trailing byte":      good + "\x00",
		"user past end":      "\x09a\x00\x1a",
		"kind past end":      "\x02a\x7f",
		"varint over 64 bit": "\x02a\x00" + strings.Repeat("\xff", 10) + "\x01",
		"clears past end":    "\x02a\x00\x1a\x00\x00\xff\xff\xff\xff\x0f\x02\x02",
		"salt past end":      "\x02a\x00\x1a\x00\x00\x00\x7f\x00",
	} {
		if p, err := ParsePacked([]byte(in)); err == nil {
			t.Errorf("%s: ParsePacked(%q) accepted %q", name, in, p.s)
		}
	}
}
