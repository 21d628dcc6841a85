package passpoints

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"clickpass/internal/core"
	"clickpass/internal/geom"
)

// Records holding a clear offset or iteration count at the int32
// bounds a record stores, which must decode, and just past them, which
// must be refused.
var (
	int32AtBounds = []string{
		`{"user":"x","square_side_px":13,"clears":[{"dx":2147483647,"dy":0,"grid":0}],"iterations":5,"digest":"aGk="}`,
		`{"user":"x","square_side_px":13,"clears":[{"dx":-2147483648,"dy":0,"grid":0}],"iterations":5,"digest":"aGk="}`,
	}
	int32PastBounds = []string{
		`{"user":"x","square_side_px":13,"clears":[{"dx":2147483648,"dy":0,"grid":0}],"iterations":5,"digest":"aGk="}`,
		`{"user":"x","square_side_px":13,"iterations":-2147483649,"digest":"aGk="}`,
	}
)

// FuzzUnmarshalRecord: arbitrary bytes must never panic the record
// decoder, and any record it does accept must be structurally sound,
// exactly what encoding/json decodes from the same bytes, and packable:
// its packed form must materialise, and encode by hand, to the record's
// Marshal bytes.
func FuzzUnmarshalRecord(f *testing.F) {
	scheme, err := core.NewCentered(13)
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{Image: geom.Size{W: 451, H: 331}, Clicks: 5, Scheme: scheme, Iterations: 2}
	rec, err := Enroll(cfg, "seed", []geom.Point{
		geom.Pt(30, 40), geom.Pt(120, 300), geom.Pt(222, 51),
		geom.Pt(400, 200), geom.Pt(77, 160),
	})
	if err != nil {
		f.Fatal(err)
	}
	good, err := rec.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"user":"x","square_side_px":-1,"iterations":5,"digest":"aGk="}`))
	f.Add([]byte(`not json`))
	for _, seed := range append(int32AtBounds, int32PastBounds...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRecord(data)
		if err != nil {
			return
		}
		if r.SquareSidePx <= 0 || r.Iterations <= 0 || len(r.Digest) == 0 {
			t.Fatalf("decoder accepted malformed record: %+v", r)
		}
		var ref Record
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(*r, ref) {
			t.Fatalf("decoded %+v; encoding/json gives %+v, %v", *r, ref, err)
		}
		want, _ := r.Marshal()
		p := Pack(r)
		back, _ := p.Record().Marshal()
		if string(back) != string(want) || string(p.AppendJSON(nil)) != string(want) {
			t.Fatalf("record %s packs to %q, which materialises to %s and encodes to %s", want, p.s, back, p.AppendJSON(nil))
		}
	})
}

// FuzzVerify: arbitrary click coordinates against a record must never
// panic, never error for in-image clicks against a record of the
// configured scheme, and get the same answer and error from Verify and
// from VerifyPacked on the record's packed form. The record is one of a
// centered, a robust and an unknown-kind record, picked by the input.
func FuzzVerify(f *testing.F) {
	scheme, err := core.NewCentered(13)
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{Image: geom.Size{W: 451, H: 331}, Clicks: 5, Scheme: scheme, Iterations: 2}
	enrolled := []geom.Point{
		geom.Pt(30, 40), geom.Pt(120, 300), geom.Pt(222, 51),
		geom.Pt(400, 200), geom.Pt(77, 160),
	}
	rec, err := Enroll(cfg, "seed", enrolled)
	if err != nil {
		f.Fatal(err)
	}
	robust, err := core.NewRobust2D(19, core.MostCentered, 1)
	if err != nil {
		f.Fatal(err)
	}
	rcfg := cfg
	rcfg.Scheme = robust
	other, err := Enroll(rcfg, "robust", enrolled)
	if err != nil {
		f.Fatal(err)
	}
	unknown := *rec
	unknown.Kind = "weird"
	recs := []*Record{rec, other, &unknown}
	f.Add(30, 40, 120, 300, 222)
	f.Add(0, 0, 0, 0, 0)
	f.Add(450, 330, 450, 330, 450)
	f.Add(-1, 40, 120, 300, 222)
	f.Fuzz(func(t *testing.T, a, b, c, d, e int) {
		size := geom.Size{W: 451, H: 331}
		clicks := []geom.Point{
			size.Clamp(geom.Pt(a, b)), size.Clamp(geom.Pt(b, c)), size.Clamp(geom.Pt(c, d)),
			size.Clamp(geom.Pt(d, e)), size.Clamp(geom.Pt(e, a)),
		}
		r := recs[uint(a)%uint(len(recs))]
		ok, err := Verify(cfg, r, clicks)
		if err != nil && r == rec {
			t.Fatalf("in-image clicks errored: %v", err)
		}
		pok, perr := VerifyPacked(cfg, Pack(r), clicks)
		if ok != pok || fmt.Sprint(err) != fmt.Sprint(perr) {
			t.Fatalf("Verify = %v, %v; VerifyPacked = %v, %v", ok, err, pok, perr)
		}
	})
}
