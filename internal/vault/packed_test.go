package vault

import (
	"errors"
	"testing"

	"clickpass/internal/passpoints"
)

// packedShapes are the record shapes the packed form must keep: the
// canonical-decode fixtures (every field set, nil against empty clears,
// salt and digest, an unknown kind, negative numbers, user names with
// JSON escapes and non-ASCII) and a record of 300 clears.
func packedShapes(t testing.TB) []*passpoints.Record {
	many := &passpoints.Record{User: "many", Kind: passpoints.KindRobust, SquareSidePx: 36, Iterations: 7, Digest: []byte{9}}
	for i := range 300 {
		many.Clears = append(many.Clears, passpoints.ClearID{DX: int32(i * 977), DY: -int32(i), Grid: uint8(i)})
	}
	return append(canonRecords(t), many)
}

// checkPacked fails unless s serves every record of recs, through Get
// and GetPacked alike, with the Marshal bytes of the record stored.
func checkPacked(t *testing.T, s Store, recs []*passpoints.Record) {
	t.Helper()
	for _, rec := range recs {
		want, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.User)
		if err != nil {
			t.Fatalf("Get(%q): %v", rec.User, err)
		}
		p, err := s.GetPacked(rec.User)
		if err != nil {
			t.Fatalf("GetPacked(%q): %v", rec.User, err)
		}
		gb, _ := got.Marshal()
		pb, _ := p.Record().Marshal()
		if string(gb) != string(want) || string(pb) != string(want) {
			t.Errorf("%q stored as\n%s\nGet gives\n%s\nGetPacked gives\n%s", rec.User, want, gb, pb)
		}
	}
	if _, err := s.GetPacked("nobody"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetPacked of a missing user = %v, want ErrNotFound", err)
	}
}

// TestPackedReadsAgree: on every backend, GetPacked and Get serve the
// record Put stored, byte for byte in its Marshal form, for every shape
// the JSON formats admit — on a durable store also after a reopen has
// replayed them from the logs.
func TestPackedReadsAgree(t *testing.T) {
	recs := packedShapes(t)
	put := func(t *testing.T, s Store) {
		for _, rec := range recs {
			if err := s.Put(rec); err != nil {
				t.Fatalf("Put(%q): %v", rec.User, err)
			}
		}
	}
	t.Run("sharded", func(t *testing.T) {
		s := NewSharded(4)
		put(t, s)
		checkPacked(t, s, recs)
	})
	t.Run("durable", func(t *testing.T) {
		d := openDurableT(t, DurableOptions{Shards: 4})
		put(t, d)
		checkPacked(t, d, recs)
		checkPacked(t, reopen(t, d), recs)
	})
	t.Run("flaky", func(t *testing.T) {
		s := NewFlaky(NewSharded(4), FlakyOptions{Seed: 1})
		put(t, s)
		checkPacked(t, s, recs)
	})
}

// scribble changes every field of rec in place.
func scribble(rec *passpoints.Record) {
	rec.User += "!"
	rec.Kind = "scribbled"
	rec.SquareSidePx++
	rec.ImageW++
	rec.ImageH++
	rec.Clears[0].DX++
	rec.Salt[0] ^= 0xff
	rec.Iterations++
	rec.Digest[0] ^= 0xff
}

// TestStoreKeepsCopies: a store keeps a copy of the record Put or
// Replace hands it, and Get hands out a copy, so changing a record on
// either side of the call changes nothing stored.
func TestStoreKeepsCopies(t *testing.T) {
	for _, impl := range storeImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk(t)
			var want []byte
			unchanged := func(when string) {
				t.Helper()
				got, err := s.Get("alice")
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if b, _ := got.Marshal(); string(b) != string(want) {
					t.Errorf("%s: stored record became\n%s\nwant\n%s", when, b, want)
				}
			}
			for _, write := range []func(*passpoints.Record) error{s.Put, s.Replace} {
				rec := testRecord(t, "alice")
				want, _ = rec.Marshal()
				if err := write(rec); err != nil {
					t.Fatal(err)
				}
				scribble(rec)
				unchanged("after changing the record written")
				got, _ := s.Get("alice")
				scribble(got)
				unchanged("after changing the record Get returned")
			}
		})
	}
}

// TestGetPackedAllocFree: the read login makes allocates nothing.
func TestGetPackedAllocFree(t *testing.T) {
	for _, impl := range storeImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk(t)
			if err := s.Put(testRecord(t, "alice")); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := s.GetPacked("alice"); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("GetPacked allocates %.1f times a call, want 0", n)
			}
		})
	}
}
