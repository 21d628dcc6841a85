package scenario

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"clickpass/internal/attack"
	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/imagegen"
	"clickpass/internal/loadtest"
	"clickpass/internal/passpoints"
	"clickpass/internal/replay"
	"clickpass/internal/study"
	"clickpass/internal/vault"
)

// testScheme builds the scheme every scenario test serves and models:
// Centered(13), the paper's baseline tolerance.
func testScheme(tb testing.TB) core.Scheme {
	tb.Helper()
	s, err := core.NewCentered(13)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// startServer runs a fresh in-process pwserver over store (nil means a
// fresh memory vault) with the given lockout and returns its TCP
// address, an HTTP front URL, and a shutdown func; tune (may be nil)
// adjusts the server before it starts serving. Every red-team run gets its own server:
// attacks burn lockout budget, so servers cannot be shared between
// runs.
func startServer(tb testing.TB, lockout int, store vault.Store, tune func(*authproto.Server)) (addr, httpURL string, shutdown func()) {
	tb.Helper()
	cfg := passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     testScheme(tb),
		Iterations: 2,
	}
	if store == nil {
		store = vault.NewSharded(0)
	}
	srv, err := authproto.NewServer(cfg, store, lockout)
	if err != nil {
		tb.Fatal(err)
	}
	if tune != nil {
		tune(srv)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() { _ = srv.Serve(l); close(done) }()
	ts := httptest.NewServer(srv.HTTPHandler())
	return l.Addr().String(), ts.URL, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
		<-done
	}
}

// testData is the shared victim/attacker corpus: a small cars field
// study as the victim population and a lab study as the attacker's
// harvest, with two high-saliency lab guesses planted into the field
// so the top of the guess stream provably compromises known accounts
// even under a tight lockout budget.
var testDataOnce = struct {
	sync.Once
	field, lab *dataset.Dataset
	img        *imagegen.Image
}{}

func testData(tb testing.TB) (field, lab *dataset.Dataset, img *imagegen.Image) {
	tb.Helper()
	testDataOnce.Do(func() {
		img := imagegen.Cars()
		fcfg := study.FieldConfig(img, 31)
		fcfg.Passwords = 40
		field, err := study.Run(fcfg)
		if err != nil {
			panic(err)
		}
		lab, err := study.Run(study.LabConfig(img, 77))
		if err != nil {
			panic(err)
		}
		// Plant the stream's #2 and #6 guesses as two field passwords:
		// accounts u5 and u17 then fall at guess depths 1 and 5 — inside
		// any lockout budget >= 6.
		order, err := attack.GuessOrder(lab, img)
		if err != nil {
			panic(err)
		}
		for _, plant := range []struct{ acct, guess int }{{5, 1}, {17, 5}} {
			clicks := make([]dataset.Click, len(order[plant.guess]))
			for j, p := range order[plant.guess] {
				clicks[j] = dataset.FromPoint(p)
			}
			field.Passwords[plant.acct].Clicks = clicks
		}
		testDataOnce.field, testDataOnce.lab, testDataOnce.img = field, lab, img
	})
	return testDataOnce.field, testDataOnce.lab, testDataOnce.img
}

// modelCurve replays the online attack in-process: for each field
// account, the index of the first accepted guess within the first
// `limit` entries of the stream, folded into the same cumulative curve
// RedTeam reports. This is attack.Online's exact acceptance predicate
// (replay.Set.Accepts), so equality with the wire run is the
// engine-versus-servers invariant.
func modelCurve(tb testing.TB, field, lab *dataset.Dataset, img *imagegen.Image, limit int) CrackCurve {
	tb.Helper()
	order, err := attack.GuessOrder(lab, img)
	if err != nil {
		tb.Fatal(err)
	}
	if limit > 0 && limit < len(order) {
		order = order[:limit]
	}
	set := replay.Compile(field, testScheme(tb))
	curve := make([]int, len(order))
	compromised := 0
	for i := 0; i < set.Len(); i++ {
		for k, g := range order {
			if set.Accepts(i, g) {
				compromised++
				curve[k]++
				break
			}
		}
	}
	cum := 0
	for k := range curve {
		cum += curve[k]
		curve[k] = cum
	}
	return CrackCurve{
		Accounts:    set.Len(),
		Guesses:     len(order),
		Compromised: compromised,
		Curve:       curve,
	}
}

// enrollField pushes the field population through the wire and fails
// the test on any refusal.
func enrollField(tb testing.TB, cfg Config, field *dataset.Dataset) []string {
	tb.Helper()
	users, err := EnrollStream(cfg, FieldAccounts(field))
	if err != nil {
		tb.Fatal(err)
	}
	if len(users) != len(field.Passwords) {
		tb.Fatalf("enrolled %d accounts, want %d", len(users), len(field.Passwords))
	}
	return users
}

// TestRedTeamCurveGolden pins the harness's determinism claim: the
// compromise curve is byte-identical at every worker count and over
// both transports, and equals the in-process model's curve. It also
// pins the lockout arithmetic — with the guess stream truncated to the
// lockout, every uncompromised account ends exactly locked after
// lockout-1 denials.
func TestRedTeamCurveGolden(t *testing.T) {
	const lockout = 8
	field, lab, img := testData(t)
	guesses, err := Guesses(lab, img, lockout)
	if err != nil {
		t.Fatal(err)
	}
	if len(guesses) != lockout {
		t.Fatalf("guess stream has %d entries, want %d", len(guesses), lockout)
	}
	want := modelCurve(t, field, lab, img, lockout)
	if want.Compromised == 0 {
		t.Fatalf("model compromises no accounts; test corpus is too weak")
	}
	t.Logf("model: %d/%d compromised, curve %v", want.Compromised, want.Accounts, want.Curve)

	for _, workers := range []int{1, 2, 8} {
		for _, transport := range []string{"tcp", "http"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, transport), func(t *testing.T) {
				addr, httpURL, shutdown := startServer(t, lockout, nil, nil)
				defer shutdown()
				dial := loadtest.TCPTransport(addr, 5*time.Second)
				if transport == "http" {
					dial = loadtest.HTTPTransport(httpURL)
				}
				cfg := Config{Dial: dial, Workers: workers}
				users := enrollField(t, cfg, field)
				rep, err := RedTeam(cfg, users, guesses)
				if err != nil {
					t.Fatal(err)
				}
				if got := rep.CrackCurve(); !reflect.DeepEqual(got, want) {
					t.Errorf("crack curve diverged from model:\n got %+v\nwant %+v", got, want)
				}
				if rep.Incomplete != 0 {
					t.Errorf("%d accounts incomplete on an unloaded server", rep.Incomplete)
				}
				// Uncompromised accounts burn the whole budget: lockout-1
				// verified denials, then the crossing answers locked.
				if wantLocked := rep.Accounts - rep.Compromised; rep.Locked != wantLocked {
					t.Errorf("Locked = %d, want %d", rep.Locked, wantLocked)
				}
				var wantDenied int64
				for k, c := range want.Curve {
					prev := 0
					if k > 0 {
						prev = want.Curve[k-1]
					}
					wantDenied += int64(k) * int64(c-prev)
				}
				wantDenied += int64(want.Accounts-want.Compromised) * int64(lockout-1)
				if rep.Denied != wantDenied {
					t.Errorf("Denied = %d, want %d", rep.Denied, wantDenied)
				}
			})
		}
	}
}

// TestRedTeamMatchesOnline is the equivalence invariant with the full
// guess stream: the through-the-wire compromise count equals
// attack.Online's in-process result for the same seed and lockout.
func TestRedTeamMatchesOnline(t *testing.T) {
	const lockout = 64 // > len(lab): the stream, not the budget, is the limit
	field, lab, img := testData(t)
	online, err := attack.Online(field, lab, img, testScheme(t), lockout, 1)
	if err != nil {
		t.Fatal(err)
	}
	if online.Compromised < 2 {
		t.Fatalf("online model compromised %d accounts, want >= 2 (planted)", online.Compromised)
	}

	addr, _, shutdown := startServer(t, lockout, nil, nil)
	defer shutdown()
	cfg := Config{Dial: loadtest.TCPTransport(addr, 5*time.Second), Workers: 4}
	users := enrollField(t, cfg, field)
	guesses, err := Guesses(lab, img, lockout)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RedTeam(cfg, users, guesses)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compromised != online.Compromised {
		t.Errorf("wire compromised %d accounts, in-process model %d", rep.Compromised, online.Compromised)
	}
	// The stream (30 lab passwords) is shorter than the budget, so no
	// account can lock and every wrong guess is a verified denial.
	if rep.Locked != 0 {
		t.Errorf("Locked = %d, want 0 (stream shorter than lockout)", rep.Locked)
	}
	if rep.Accounts != online.Accounts {
		t.Errorf("Accounts = %d, want %d", rep.Accounts, online.Accounts)
	}
}

// TestRedTeamShedEquivalence pins that admission control never leaks
// lockout budget: with the server choked to one concurrent request and
// eight attack workers, shed responses are re-sent until definitive,
// so the curve still equals the unloaded model's.
func TestRedTeamShedEquivalence(t *testing.T) {
	const lockout = 8
	field, lab, img := testData(t)
	want := modelCurve(t, field, lab, img, lockout)

	// One admission slot, a two-deep queue, and deterministic latency
	// spikes on store calls, which hold the slot: with eight workers the
	// queue overflows and the limiter sheds fast CodeOverloaded refusals
	// — the overload regime the equivalence claim is about.
	slow := vault.NewFlaky(vault.NewSharded(0), vault.FlakyOptions{Seed: 9, LatencyRate: 0.25, Latency: 2 * time.Millisecond})
	_, httpURL, shutdown := startServer(t, lockout, slow, func(srv *authproto.Server) {
		srv.SetMaxConns(1)
		srv.SetOverload(authsvc.OverloadPolicy{Queue: 2})
	})
	defer shutdown()
	cfg := Config{
		Dial:    loadtest.HTTPTransport(httpURL),
		Workers: 8,
		Retry: authsvc.RetryPolicy{
			MaxAttempts:      12,
			BaseDelay:        time.Millisecond,
			MaxDelay:         20 * time.Millisecond,
			BreakerThreshold: -1,
		},
		ThrottleWait: 2 * time.Millisecond,
	}
	// Enroll gently (two workers) so population setup itself does not
	// exhaust retry budgets against the one-slot server; the attack
	// then hits it with the full eight-worker swarm.
	enrollCfg := cfg
	enrollCfg.Workers = 2
	users := enrollField(t, enrollCfg, field)
	guesses, err := Guesses(lab, img, lockout)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RedTeam(cfg, users, guesses)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("under shed: %d overloaded absorbed, %d retries, %d guess re-sends",
		rep.Wire.Overloaded, rep.Wire.Retries, rep.Resent)
	if rep.Wire.Overloaded == 0 {
		t.Error("no overloaded responses absorbed; the server never shed and the test proves nothing")
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d accounts incomplete; raise retry budget", rep.Incomplete)
	}
	if got := rep.CrackCurve(); !reflect.DeepEqual(got, want) {
		t.Errorf("shedding changed the curve:\n got %+v\nwant %+v", got, want)
	}
}

// TestEnrollStreamCohort pins the streamed-enrollment path end to end:
// a cohort streamed through CohortAccounts enrolls the exact accounts
// a materialized RunCohort would produce — verified by logging in over
// the wire with clicks taken from the materialized twin.
func TestEnrollStreamCohort(t *testing.T) {
	ccfg := study.DefaultCohort(imagegen.Cars(), 17)
	ccfg.Participants = 8
	twin, err := study.RunCohort(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	addr, _, shutdown := startServer(t, 1<<20, nil, nil)
	defer shutdown()
	cfg := Config{Dial: loadtest.TCPTransport(addr, 5*time.Second), Workers: 4}
	users, err := EnrollStream(cfg, CohortAccounts(ccfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != len(twin.Passwords) {
		t.Fatalf("enrolled %d accounts, cohort has %d passwords", len(users), len(twin.Passwords))
	}
	for i, pw := range twin.Passwords {
		if want := AccountName(pw.ID); users[i] != want {
			t.Fatalf("users[%d] = %q, want %q", i, users[i], want)
		}
	}

	cli, err := cfg.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ops := authsvc.Ops{Doer: cli}
	ctx := context.Background()
	for _, i := range []int{0, len(twin.Passwords) / 2, len(twin.Passwords) - 1} {
		pw := twin.Passwords[i]
		resp, err := ops.Login(ctx, AccountName(pw.ID), pw.Clicks)
		if err != nil || !resp.OK() {
			t.Fatalf("login %s with materialized clicks: %+v %v", AccountName(pw.ID), resp, err)
		}
	}
}
