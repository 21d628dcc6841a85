package authsvc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// The fault-injection torture run: a service over a durable store
// wrapped in vault.Flaky — injected errors, latency spikes and
// fsync-style stalls on every store call — hammered concurrently. The
// two correctness invariants under fire:
//
//  1. Zero false accepts — a wrong password never returns CodeOK, no
//     matter which faults fire around it.
//  2. Exact lockout counters — injected infrastructure errors consume
//     no lockout attempts (they are CodeInternal, not CodeDenied), so
//     every account sees exactly lockout-1 denials with strictly
//     decreasing Remaining, then CodeLocked forever.
func TestFaultTortureLockoutExact(t *testing.T) {
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}
	d, err := vault.OpenDurable(t.TempDir(), vault.DurableOptions{Shards: 4, Sync: vault.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	flaky := vault.NewFlaky(d, vault.FlakyOptions{
		Seed: 1234, ErrRate: 0.15, LatencyRate: 0.05, Latency: 200 * time.Microsecond,
		StallEvery: 50, Stall: time.Millisecond,
	})
	const lockout = 4
	svc, err := NewService(cfg, flaky, lockout)
	if err != nil {
		t.Fatal(err)
	}
	h := Chain(svc, WithRecover())

	good := func(u string) []dataset.Click {
		return []dataset.Click{{X: 30, Y: 40}, {X: 120, Y: 300}, {X: 222, Y: 51}, {X: 400, Y: 200}, {X: 77, Y: 160}}
	}
	bad := func(u string) []dataset.Click {
		return []dataset.Click{{X: 130, Y: 140}, {X: 20, Y: 200}, {X: 322, Y: 151}, {X: 300, Y: 100}, {X: 177, Y: 60}}
	}
	const perSide = 6
	users := make([]string, 0, 2*perSide)
	for i := 0; i < 2*perSide; i++ {
		u := fmt.Sprintf("torture-%d", i)
		users = append(users, u)
		// Enrollment itself runs under fault injection; retry past the
		// injected internal errors until it lands.
		enrolled := false
		for try := 0; try < 200 && !enrolled; try++ {
			resp := h.Handle(context.Background(), Request{Op: OpEnroll, User: u, Clicks: good(u)})
			switch resp.Code {
			case CodeOK:
				enrolled = true
			case CodeInternal:
			default:
				t.Fatalf("enroll %s: %+v", u, resp)
			}
		}
		if !enrolled {
			t.Fatalf("enroll %s never got past the fault injector", u)
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	// Correct-credential workers: users[0:perSide] only ever see their
	// own right password — any CodeDenied is a false reject, any
	// CodeLocked a phantom lockout.
	for w := 0; w < perSide; w++ {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				resp := h.Handle(context.Background(), Request{Op: OpLogin, User: u, Clicks: good(u)})
				switch resp.Code {
				case CodeOK:
					if resp.Remaining != lockout {
						report("%s: correct login Remaining = %d, want %d", u, resp.Remaining, lockout)
					}
				case CodeInternal:
					// An injected fault; must not consume budget (the next
					// OK asserting Remaining == lockout proves it didn't).
				default:
					report("%s: correct login got %s (%s)", u, resp.Code, resp.Err)
				}
			}
		}(users[w])
	}

	// Wrong-credential workers: users[perSide:] are only ever guessed
	// wrong. Each worker owns one account, so the denial sequence it
	// observes must be exact: Remaining lockout-1 .. 1, then locked.
	for w := 0; w < perSide; w++ {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			wantRemaining := lockout - 1
			locked := false
			denials := 0
			for i := 0; i < 300; i++ {
				resp := h.Handle(context.Background(), Request{Op: OpLogin, User: u, Clicks: bad(u)})
				switch resp.Code {
				case CodeOK:
					report("%s: FALSE ACCEPT of a wrong password", u)
				case CodeInternal:
					// No budget consumed: the sequence below must continue
					// exactly where it left off.
				case CodeDenied:
					denials++
					if locked {
						report("%s: denial after lockout (counter went backwards)", u)
					} else if resp.Remaining != wantRemaining {
						report("%s: denial %d Remaining = %d, want %d", u, denials, resp.Remaining, wantRemaining)
					}
					wantRemaining--
				case CodeLocked:
					if !locked && wantRemaining != 0 {
						report("%s: locked with %d attempts unused", u, wantRemaining)
					}
					locked = true
				default:
					report("%s: wrong login got %s (%s)", u, resp.Code, resp.Err)
				}
			}
			if !locked {
				report("%s: 300 wrong attempts never locked the account", u)
			}
			if denials != lockout-1 {
				report("%s: %d denials, want exactly %d", u, denials, lockout-1)
			}
		}(users[perSide+w])
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}

	// The wrong-guessed accounts must stay locked for correct
	// credentials too, and an administrative reset (retried past
	// faults) must restore exactly the full budget.
	u := users[perSide]
	resp := h.Handle(context.Background(), Request{Op: OpLogin, User: u, Clicks: good(u)})
	for resp.Code == CodeInternal {
		resp = h.Handle(context.Background(), Request{Op: OpLogin, User: u, Clicks: good(u)})
	}
	if resp.Code != CodeLocked {
		t.Fatalf("locked account answered %s to the right password", resp.Code)
	}
	for {
		resp = h.Handle(context.Background(), Request{Op: OpReset, User: u})
		if resp.Code == CodeOK {
			break
		}
		if resp.Code != CodeInternal {
			t.Fatalf("reset: %+v", resp)
		}
	}
	resp = h.Handle(context.Background(), Request{Op: OpLogin, User: u, Clicks: good(u)})
	for resp.Code == CodeInternal {
		resp = h.Handle(context.Background(), Request{Op: OpLogin, User: u, Clicks: good(u)})
	}
	if resp.Code != CodeOK || resp.Remaining != lockout {
		t.Fatalf("post-reset login: %+v, want CodeOK with the full budget", resp)
	}
}
