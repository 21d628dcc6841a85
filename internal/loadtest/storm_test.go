package loadtest

import (
	"fmt"
	"testing"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/vault"
)

// stormServer starts a server tuned for overload tests: a slow store
// (so requests genuinely overlap), a small admission cap, and the
// bounded-queue overload policy. Storms drive the HTTP front: the TCP
// front deliberately pins one worker per connection (kernel-side
// backpressure — a 10x herd of long-lived TCP connections just queues
// in the accept backlog), so the request-level overload policy is
// observable only through a front that multiplexes connections.
func stormServer(tb testing.TB, maxConns, queue int) (baseURL, addr string, shutdown func()) {
	tb.Helper()
	srv, addr, stopSrv := startServer(tb, slowStore{vault.NewSharded(0), 2 * time.Millisecond}, maxConns)
	srv.SetOverload(authsvc.OverloadPolicy{Queue: queue})
	baseURL, closeHTTP := startHTTP(tb, srv)
	return baseURL, addr, func() {
		closeHTTP()
		stopSrv()
	}
}

// stormLogins builds the all-logins request mix (high priority — the
// traffic the policy protects).
func stormLogins(users []string) func(int, int) authsvc.Request {
	return func(client, op int) authsvc.Request {
		u := users[client%len(users)]
		return authsvc.Request{Op: authsvc.OpLogin, User: u, Clicks: userClicks(u)}
	}
}

// TestStormSmoke is the CI acceptance point for overload robustness: a
// login storm at 10x the server's concurrency capacity must (1)
// engage the shedding path, (2) refuse fast — shed latency nowhere
// near a service time — (3) keep accepted-request latency in the same
// regime as an uncontended run, and (4) hold goodput near capacity:
// overload must cost the refused requests, not the served ones. The
// bounds carry CI slack; PERFORMANCE.md records the tight local
// numbers.
func TestStormSmoke(t *testing.T) {
	const maxConns = 4
	baseURL, addr, shutdown := stormServer(t, maxConns, 2*maxConns)
	defer shutdown()
	users := enrollUsers(t, addr, maxConns)

	// Uncontended baseline: exactly capacity clients, no queueing to
	// speak of — the reference for both goodput and latency.
	base, err := Storm(StormConfig{
		Dial:         HTTPTransport(baseURL),
		Clients:      maxConns,
		OpsPerClient: 30,
		Request:      stormLogins(users),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: %s", base)
	if base.Errors != 0 || base.Shed != 0 || base.Accepted != maxConns*30 {
		t.Fatalf("baseline not clean: %s", base)
	}

	// The storm: 10x oversubscription, every client reconnect-hammering.
	storm, err := Storm(StormConfig{
		Dial:         HTTPTransport(baseURL),
		Clients:      10 * maxConns,
		OpsPerClient: 15,
		Request:      stormLogins(users),
		Timeout:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("storm:    %s", storm)

	if storm.Errors != 0 {
		t.Errorf("storm saw %d transport errors", storm.Errors)
	}
	if storm.Shed == 0 {
		t.Errorf("10x oversubscription never shed; the overload policy did not engage")
	}
	if storm.Accepted == 0 {
		t.Fatalf("storm served nothing: %s", storm)
	}
	// Refusals must be cheap. Server-side a shed is microseconds; what
	// the client observes also includes the 10x herd's simultaneous
	// connection setup, which lands in the tail. So the median carries
	// the "sub-service-time refusal" assertion (locally it is well
	// under the 2ms store delay) and the p99 only guards against
	// refusals queueing behind real work. raceSlack widens the clocks
	// under the race detector's instrumentation overhead.
	if storm.ShedP50 > 5*raceSlack*time.Millisecond {
		t.Errorf("shed p50 = %s; refusals cost more than served work", storm.ShedP50)
	}
	if storm.ShedP99 > 100*raceSlack*time.Millisecond {
		t.Errorf("shed p99 = %s; refusals are queueing somewhere", storm.ShedP99)
	}
	// Accepted-request latency stays in the uncontended regime: the
	// bounded queue (not the 10x demand) sets the ceiling. The tight
	// local ratio is ~3x (PERFORMANCE.md); 8x absorbs CI noise.
	if limit := 8*base.AccP99 + 20*raceSlack*time.Millisecond; storm.AccP99 > limit {
		t.Errorf("storm accepted p99 = %s, baseline %s; queueing is unbounded (limit %s)",
			storm.AccP99, base.AccP99, limit)
	}
	// Goodput holds near capacity — the served half must not pay for
	// the refused half. Tight local ratio ~0.9+; 0.5 is the CI floor.
	if storm.Goodput() < 0.5*base.Goodput() {
		t.Errorf("storm goodput %.0f/s vs baseline %.0f/s; shedding is starving served traffic",
			storm.Goodput(), base.Goodput())
	}
}

// TestStormRetryingClientsRecover: the same storm through RetryClient
// wrappers — sheds are retried with jittered backoff honoring
// Retry-After, so nearly every op eventually lands without melting the
// server.
func TestStormRetryingClientsRecover(t *testing.T) {
	const maxConns = 4
	baseURL, addr, shutdown := stormServer(t, maxConns, 2*maxConns)
	defer shutdown()
	users := enrollUsers(t, addr, maxConns)

	dial := HTTPTransport(baseURL)
	res, err := Storm(StormConfig{
		Dial: func(i int) (authsvc.Client, error) {
			inner, err := dial(i)
			if err != nil {
				return nil, err
			}
			return authsvc.NewRetryClient(inner, authsvc.RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
			}), nil
		},
		Clients:      5 * maxConns,
		OpsPerClient: 8,
		Request:      stormLogins(users),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("retrying storm: %s", res)
	if res.Errors != 0 {
		t.Errorf("retrying storm saw %d errors", res.Errors)
	}
	// A shed only surfaces here when all 8 attempts were refused;
	// backoff should make that rare and acceptance dominant.
	if res.Accepted < res.Ops*8/10 {
		t.Errorf("retrying clients landed only %d/%d ops", res.Accepted, res.Ops)
	}
}

// BenchmarkLoginStorm measures the overload numbers PERFORMANCE.md
// records: goodput under a 10x login storm, shed-response latency, and
// accepted-request p99 against the uncontended baseline (base_p99).
//
//	go test ./internal/loadtest -run NONE -bench LoginStorm -benchtime 2000x
func BenchmarkLoginStorm(b *testing.B) {
	const maxConns = 8
	for _, over := range []int{1, 10} {
		b.Run(fmt.Sprintf("over=%dx", over), func(b *testing.B) {
			baseURL, addr, shutdown := stormServer(b, maxConns, 4*maxConns)
			defer shutdown()
			users := enrollUsers(b, addr, maxConns)
			clients := over * maxConns
			ops := b.N/clients + 1
			b.ResetTimer()
			res, err := Storm(StormConfig{
				Dial:         HTTPTransport(baseURL),
				Clients:      clients,
				OpsPerClient: ops,
				Request:      stormLogins(users),
				Timeout:      5 * time.Second,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Errors != 0 {
				b.Fatalf("storm errors: %d (%s)", res.Errors, res)
			}
			b.ReportMetric(res.Goodput(), "goodput/s")
			b.ReportMetric(res.ShedRate()*100, "shed%")
			b.ReportMetric(float64(res.AccP99.Microseconds()), "acc-p99-µs")
			if res.Shed > 0 {
				b.ReportMetric(float64(res.ShedP99.Microseconds()), "shed-p99-µs")
			}
		})
	}
}
