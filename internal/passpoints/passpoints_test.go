package passpoints

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"clickpass/internal/canonjson"
	"clickpass/internal/core"
	"clickpass/internal/fixed"
	"clickpass/internal/geom"
)

func centeredCfg(t *testing.T, side int) Config {
	t.Helper()
	s, err := core.NewCentered(side)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     s,
		Iterations: 2, // keep tests fast
	}
}

func robustCfg(t *testing.T, side int) Config {
	t.Helper()
	s, err := core.NewRobust2D(side, core.MostCentered, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     s,
		Iterations: 2,
	}
}

func fiveClicks() []geom.Point {
	return []geom.Point{
		geom.Pt(30, 40), geom.Pt(120, 300), geom.Pt(222, 51),
		geom.Pt(400, 200), geom.Pt(77, 160),
	}
}

func TestEnrollVerifyRoundTrip(t *testing.T) {
	for _, cfg := range []Config{centeredCfg(t, 13), robustCfg(t, 13)} {
		clicks := fiveClicks()
		rec, err := Enroll(cfg, "alice", clicks)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := Verify(cfg, rec, clicks)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s: exact re-entry rejected", cfg.Scheme.Name())
		}
	}
}

func TestVerifyWithinTolerance(t *testing.T) {
	cfg := centeredCfg(t, 13) // r = 6.5: within 6 pixels accepted
	clicks := fiveClicks()
	rec, err := Enroll(cfg, "alice", clicks)
	if err != nil {
		t.Fatal(err)
	}
	near := make([]geom.Point, len(clicks))
	for i, p := range clicks {
		near[i] = p.Add(geom.Pt(6, -6))
	}
	ok, err := Verify(cfg, rec, near)
	if err != nil || !ok {
		t.Errorf("6px displacement should be accepted: %v %v", ok, err)
	}
	far := make([]geom.Point, len(clicks))
	copy(far, clicks)
	far[2] = clicks[2].Add(geom.Pt(7, 0))
	ok, err = Verify(cfg, rec, far)
	if err != nil || ok {
		t.Errorf("7px displacement on one click should be rejected: %v %v", ok, err)
	}
}

func TestVerifyOrderMatters(t *testing.T) {
	cfg := centeredCfg(t, 13)
	clicks := fiveClicks()
	rec, err := Enroll(cfg, "alice", clicks)
	if err != nil {
		t.Fatal(err)
	}
	swapped := append([]geom.Point(nil), clicks...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	ok, err := Verify(cfg, rec, swapped)
	if err != nil || ok {
		t.Error("click order must matter")
	}
}

func TestVerifyWrongCount(t *testing.T) {
	cfg := centeredCfg(t, 13)
	rec, err := Enroll(cfg, "alice", fiveClicks())
	if err != nil {
		t.Fatal(err)
	}
	// Verify validates count against the record before the config, so
	// use a 4-click config to exercise the record-length path.
	cfg4 := cfg
	cfg4.Clicks = 4
	ok, err := Verify(cfg4, rec, fiveClicks()[:4])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("4 clicks must not verify a 5-click record")
	}
}

func TestEnrollValidation(t *testing.T) {
	cfg := centeredCfg(t, 13)
	if _, err := Enroll(cfg, "a", fiveClicks()[:3]); err == nil {
		t.Error("wrong click count should fail enrollment")
	}
	out := fiveClicks()
	out[4] = geom.Pt(451, 10) // one past the right edge
	if _, err := Enroll(cfg, "a", out); err == nil {
		t.Error("out-of-image click should fail enrollment")
	}
	// Records store the image sides, the iteration count and the clear
	// offsets, which the square side bounds, in 32 bits.
	widest, err := core.NewCentered(math.MaxInt32 / fixed.Scale)
	if err != nil {
		t.Fatal(err)
	}
	tooWide, err := core.NewCentered(math.MaxInt32/fixed.Scale + 1)
	if err != nil {
		t.Fatal(err)
	}
	edge := cfg
	edge.Image = geom.Size{W: math.MaxInt32, H: math.MaxInt32}
	edge.Iterations = math.MaxInt32
	edge.Scheme = widest
	if err := edge.Validate(); err != nil {
		t.Errorf("config at the 32-bit limits refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil scheme", func(c *Config) { c.Scheme = nil }},
		{"empty image", func(c *Config) { c.Image = geom.Size{} }},
		{"zero clicks", func(c *Config) { c.Clicks = 0 }},
		{"negative iterations", func(c *Config) { c.Iterations = -1 }},
		{"image width past 32 bits", func(c *Config) { c.Image.W = math.MaxInt32 + 1 }},
		{"image height past 32 bits", func(c *Config) { c.Image.H = math.MaxInt32 + 1 }},
		{"iterations past 32 bits", func(c *Config) { c.Iterations = math.MaxInt32 + 1 }},
		{"square side past 32 bits", func(c *Config) { c.Scheme = tooWide }},
	} {
		bad := cfg
		tc.mutate(&bad)
		if _, err := Enroll(bad, "a", fiveClicks()); err == nil {
			t.Errorf("%s should fail", tc.name)
		}
	}
}

func TestSaltsDifferPerEnrollment(t *testing.T) {
	cfg := centeredCfg(t, 13)
	r1, err := Enroll(cfg, "alice", fiveClicks())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Enroll(cfg, "alice", fiveClicks())
	if err != nil {
		t.Fatal(err)
	}
	if string(r1.Salt) == string(r2.Salt) {
		t.Error("re-enrollment reused the salt")
	}
	if string(r1.Digest) == string(r2.Digest) {
		t.Error("same password, different salts, same digest — salting broken")
	}
}

func TestRecordSerialization(t *testing.T) {
	cfg := robustCfg(t, 36)
	rec, err := Enroll(cfg, "bob", fiveClicks())
	if err != nil {
		t.Fatal(err)
	}
	data, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.User != "bob" || back.Kind != KindRobust || back.SquareSidePx != 36 {
		t.Errorf("round-trip mangled record: %+v", back)
	}
	ok, err := Verify(cfg, back, fiveClicks())
	if err != nil || !ok {
		t.Errorf("deserialized record failed verification: %v %v", ok, err)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"zero side":       `{"user":"x","square_side_px":0,"iterations":2,"digest":"aGk="}`,
		"zero iterations": `{"user":"x","square_side_px":13,"iterations":0,"digest":"aGk="}`,
		"empty digest":    `{"user":"x","square_side_px":13,"iterations":2}`,
	}
	for name, data := range cases {
		if _, err := UnmarshalRecord([]byte(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestRecordInt32Bounds: numbers at the int32 bounds a record stores
// decode on the reflection-free path, and both it and encoding/json
// refuse numbers just past them.
func TestRecordInt32Bounds(t *testing.T) {
	for want, inputs := range map[bool][]string{true: int32AtBounds, false: int32PastBounds} {
		for _, in := range inputs {
			var fast Packed
			var ref Record
			accepted := canonjson.Decode([]byte(in), &fast, readPacked)
			refErr := json.Unmarshal([]byte(in), &ref)
			if accepted != want || (refErr == nil) != want {
				t.Errorf("%s: fast path accepted %v, encoding/json error %v; want decoded %v", in, accepted, refErr, want)
			}
		}
	}
}

func TestSchemeForRecord(t *testing.T) {
	for _, mk := range []func(*testing.T, int) Config{centeredCfg, robustCfg} {
		cfg := mk(t, 19)
		rec, err := Enroll(cfg, "carol", fiveClicks())
		if err != nil {
			t.Fatal(err)
		}
		s, err := SchemeForRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.Scheme = s
		ok, err := Verify(cfg2, rec, fiveClicks())
		if err != nil || !ok {
			t.Errorf("reconstructed %s scheme failed verification", s.Name())
		}
	}
	if _, err := SchemeForRecord(nil); err == nil {
		t.Error("nil record should fail")
	}
	if _, err := SchemeForRecord(&Record{Kind: "weird", SquareSidePx: 13}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestVerifyNilRecord(t *testing.T) {
	cfg := centeredCfg(t, 13)
	if _, err := Verify(cfg, nil, fiveClicks()); err == nil ||
		!strings.Contains(err.Error(), "nil record") {
		t.Error("nil record should error")
	}
}

func TestRobustVerifyNearEdgeOfImage(t *testing.T) {
	// Clicks at image corners exercise negative/zero square indices.
	cfg := robustCfg(t, 13)
	clicks := []geom.Point{
		geom.Pt(0, 0), geom.Pt(450, 0), geom.Pt(0, 330),
		geom.Pt(450, 330), geom.Pt(225, 165),
	}
	rec, err := Enroll(cfg, "edge", clicks)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Verify(cfg, rec, clicks)
	if err != nil || !ok {
		t.Errorf("corner clicks failed: %v %v", ok, err)
	}
}
