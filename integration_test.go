package clickpass

// Cross-layer integration tests: the study simulator, the analysis
// engine, the PassPoints stack and the network server must all agree
// about which logins succeed.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/imagegen"
	"clickpass/internal/passpoints"
	"clickpass/internal/study"
	"clickpass/internal/vault"
)

// TestStudyReplayThroughServer enrolls a simulated study through the
// real TCP protocol and replays every login; the server's accept set
// must match direct scheme acceptance exactly.
func TestStudyReplayThroughServer(t *testing.T) {
	cfg := study.Config{
		Image:             imagegen.Cars(),
		Passwords:         25,
		LoginsPerPassword: 6,
		Clicks:            5,
		MinSeparation:     15,
		Error:             study.DefaultErrorModel(),
		Seed:              99,
	}
	d, err := study.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	ppCfg := passpoints.Config{
		Image:      geom.Size{W: d.Width, H: d.Height},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}
	// Lockout must exceed the per-password login volume so the replay
	// is never throttled.
	srv, err := authproto.NewServer(ppCfg, vault.NewSharded(0), 1000)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()
	client, err := authproto.Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	users := make(map[int]string)
	for i := range d.Passwords {
		pw := &d.Passwords[i]
		user := fmt.Sprintf("user-%d", pw.ID)
		users[pw.ID] = user
		resp, err := client.Enroll(ctx, user, pw.Clicks)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK() {
			t.Fatalf("enroll %s: %+v", user, resp)
		}
	}
	agree := 0
	for i := range d.Logins {
		login := &d.Logins[i]
		pw := d.PasswordByID(login.PasswordID)
		// Ground truth: every click within the centered tolerance.
		want := true
		for j := range login.Clicks {
			tok := scheme.Enroll(pw.Clicks[j].Point())
			if !core.Accepts(scheme, tok, login.Clicks[j].Point()) {
				want = false
				break
			}
		}
		resp, err := client.Login(ctx, users[login.PasswordID], login.Clicks)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK() != want {
			t.Fatalf("login %d: server says %v, scheme says %v", i, resp.OK(), want)
		}
		agree++
	}
	if agree != len(d.Logins) {
		t.Fatalf("replayed %d logins, want %d", agree, len(d.Logins))
	}
	t.Logf("server and scheme agreed on all %d logins", agree)
}

// TestVaultRoundTripAcrossConfigs: a record saved by one process must
// verify identically after reload using a scheme reconstructed from
// the record itself.
func TestVaultRoundTripAcrossConfigs(t *testing.T) {
	for _, kind := range []Kind{Centered, Robust} {
		auth, err := New(Options{
			ImageW: 451, ImageH: 331, SquareSide: 19, Scheme: kind, HashIterations: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		clicks := []Point{{30, 40}, {120, 300}, {222, 51}, {400, 200}, {77, 160}}
		rec, err := auth.Enroll("mover", clicks)
		if err != nil {
			t.Fatal(err)
		}
		v := vault.NewSharded(0)
		if err := v.Put(rec); err != nil {
			t.Fatal(err)
		}
		loaded, err := v.Get("mover")
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := passpoints.SchemeForRecord(loaded)
		if err != nil {
			t.Fatal(err)
		}
		cfg := passpoints.Config{
			Image:  geom.Size{W: 451, H: 331},
			Clicks: 5, Scheme: scheme, Iterations: 2,
		}
		pts := make([]geom.Point, len(clicks))
		for i, c := range clicks {
			pts[i] = geom.Pt(c.X, c.Y)
		}
		ok, err := passpoints.Verify(cfg, loaded, pts)
		if err != nil || !ok {
			t.Errorf("%s: reconstructed verification failed: %v %v", kind, ok, err)
		}
	}
}

// TestDatasetJSONStable: the JSON wire format of datasets must stay
// parseable after a write/read/write cycle (golden stability without a
// checked-in golden file).
func TestDatasetJSONStable(t *testing.T) {
	cfg := study.LabConfig(imagegen.Pool(), 3)
	d, err := study.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf1, buf2 bytes.Buffer
	if err := d.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	first := buf1.String()
	back, err := dataset.ReadJSON(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Error("dataset JSON not stable across a round trip")
	}
}
