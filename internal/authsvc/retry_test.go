package authsvc

import (
	"context"
	"errors"
	"testing"
	"time"
)

// scriptClient replays a fixed sequence of outcomes, recording every
// request it was handed.
type scriptClient struct {
	script []scriptStep
	calls  []Request
}

type scriptStep struct {
	resp Response
	err  error
}

func (s *scriptClient) Do(ctx context.Context, req Request) (Response, error) {
	s.calls = append(s.calls, req)
	i := len(s.calls) - 1
	if i >= len(s.script) {
		i = len(s.script) - 1
	}
	return s.script[i].resp, s.script[i].err
}

func (s *scriptClient) Close() error { return nil }

// newTestRetry wraps a script in a RetryClient with deterministic
// sleep (recorded, never actually slept) and rnd.
func newTestRetry(script []scriptStep, pol RetryPolicy) (*RetryClient, *scriptClient, *[]time.Duration) {
	inner := &scriptClient{script: script}
	c := NewRetryClient(clientFromDoer(inner), pol)
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	c.rnd = func() float64 { return 0.5 }
	return c, inner, slept
}

// clientFromDoer promotes a Doer+Close into the full Client surface.
func clientFromDoer(s *scriptClient) Client {
	w := &doerClient{inner: s}
	w.Ops = Ops{Doer: s}
	return w
}

type doerClient struct {
	Ops
	inner *scriptClient
}

func (d *doerClient) Close() error { return d.inner.Close() }

var overloadedResp = Response{Version: Version, Code: CodeOverloaded, Err: "overloaded", RetryAfterMs: 40}

// TestRetryOverloadedRetriesAllOps: a shed request provably never
// executed, so even non-idempotent ops retry — and the backoff honors
// the server's Retry-After floor.
func TestRetryOverloadedRetriesAllOps(t *testing.T) {
	script := []scriptStep{
		{resp: overloadedResp},
		{resp: overloadedResp},
		{resp: Response{Version: Version, Code: CodeOK}},
	}
	c, inner, slept := newTestRetry(script, RetryPolicy{BaseDelay: 10 * time.Millisecond})
	resp, err := c.Do(context.Background(), Request{Op: OpEnroll, User: "u"})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("Do = %+v, %v; want CodeOK", resp, err)
	}
	if len(inner.calls) != 3 {
		t.Fatalf("attempts = %d, want 3", len(inner.calls))
	}
	// rnd=0.5: attempt 1 window 10ms → 5ms, attempt 2 window 20ms →
	// 10ms — both below the 40ms Retry-After floor.
	for i, d := range *slept {
		if d != 40*time.Millisecond {
			t.Errorf("sleep %d = %s, want the 40ms Retry-After floor", i, d)
		}
	}
	st := c.Stats()
	if st.Retries != 2 || st.Overloaded != 2 {
		t.Errorf("stats = %+v, want 2 retries / 2 overloaded", st)
	}
}

// TestRetryTransportIdempotentOnly: a broken connection cannot prove
// an enroll did not commit — only idempotent ops are re-sent.
func TestRetryTransportIdempotentOnly(t *testing.T) {
	boom := errors.New("connection reset")
	for _, tc := range []struct {
		op       Op
		attempts int
	}{
		{OpLogin, 3}, {OpPing, 3}, {OpReset, 3}, // idempotent: retried
		{OpEnroll, 1}, {OpChange, 1}, // not provably unexecuted: one shot
	} {
		script := []scriptStep{{err: boom}, {err: boom}, {err: boom}}
		c, inner, _ := newTestRetry(script, RetryPolicy{MaxAttempts: 3})
		_, err := c.Do(context.Background(), Request{Op: tc.op, User: "u"})
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want the transport error", tc.op, err)
		}
		if len(inner.calls) != tc.attempts {
			t.Errorf("%s: attempts = %d, want %d", tc.op, len(inner.calls), tc.attempts)
		}
	}
}

// TestRetryBackoffFullJitter: the sleep is drawn from [0, base<<n)
// capped at MaxDelay, never a fixed schedule.
func TestRetryBackoffFullJitter(t *testing.T) {
	c := NewRetryClient(clientFromDoer(&scriptClient{script: []scriptStep{{}}}),
		RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond})
	c.rnd = func() float64 { return 0.999 }
	for _, tc := range []struct {
		attempt int
		window  time.Duration
	}{
		{1, 10 * time.Millisecond},
		{2, 20 * time.Millisecond},
		{3, 35 * time.Millisecond}, // 40ms capped
		{9, 35 * time.Millisecond},
	} {
		d := c.backoff(tc.attempt, 0)
		if d < 0 || d >= tc.window {
			t.Errorf("backoff(%d) = %s, want in [0, %s)", tc.attempt, d, tc.window)
		}
	}
	c.rnd = func() float64 { return 0 }
	if d := c.backoff(1, 7*time.Millisecond); d != 7*time.Millisecond {
		t.Errorf("floor not honored: %s", d)
	}
}

// TestRetryContextCanceledReturnsImmediately: the caller giving up is
// not a server failure — no retry, no breaker blame.
func TestRetryContextCanceledReturnsImmediately(t *testing.T) {
	script := []scriptStep{{err: context.Canceled}}
	c, inner, _ := newTestRetry(script, RetryPolicy{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, Request{Op: OpLogin, User: "u"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(inner.calls) != 1 {
		t.Errorf("attempts = %d, want 1", len(inner.calls))
	}
	if st := c.Stats(); st.BreakerOpens != 0 {
		t.Errorf("cancellation opened the breaker: %+v", st)
	}
}

// TestRetryBreakerOpensAndHalfOpens: consecutive retryable failures
// open the circuit; calls then fail fast locally; after the cooldown
// exactly one half-open probe goes out, and its success closes the
// circuit again.
func TestRetryBreakerOpensAndHalfOpens(t *testing.T) {
	pol := RetryPolicy{
		MaxAttempts:      1, // isolate breaker behavior from retry loops
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	}
	inner := &scriptClient{script: []scriptStep{{resp: overloadedResp}}}
	c := NewRetryClient(clientFromDoer(inner), pol)
	c.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	c.rnd = func() float64 { return 0 }

	// Three overloaded answers in a row open the circuit.
	for i := 0; i < 3; i++ {
		if resp, err := c.Do(context.Background(), Request{Op: OpLogin}); err != nil || resp.Code != CodeOverloaded {
			t.Fatalf("warmup call %d: %+v, %v", i, resp, err)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", st.BreakerOpens)
	}
	// While open: fail fast without touching the transport.
	before := len(inner.calls)
	if _, err := c.Do(context.Background(), Request{Op: OpLogin}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit: err = %v, want ErrCircuitOpen", err)
	}
	if len(inner.calls) != before {
		t.Errorf("open circuit still sent a request")
	}
	if st := c.Stats(); st.BreakerFastFails != 1 {
		t.Errorf("fast fails = %d, want 1", st.BreakerFastFails)
	}

	// After the cooldown, the next call is the half-open probe; the
	// server has recovered, so it closes the circuit...
	time.Sleep(pol.BreakerCooldown + 10*time.Millisecond)
	inner.script = []scriptStep{{resp: Response{Version: Version, Code: CodeOK}}}
	inner.calls = nil
	if resp, err := c.Do(context.Background(), Request{Op: OpLogin}); err != nil || resp.Code != CodeOK {
		t.Fatalf("probe: %+v, %v, want CodeOK", resp, err)
	}
	// ...and subsequent calls flow normally.
	if resp, err := c.Do(context.Background(), Request{Op: OpLogin}); err != nil || resp.Code != CodeOK {
		t.Fatalf("post-probe: %+v, %v, want CodeOK", resp, err)
	}
	if st := c.Stats(); st.BreakerFastFails != 1 {
		t.Errorf("closed circuit fast-failed again: %+v", st)
	}
}

// TestRetryBreakerFailedProbeReopens: a failed half-open probe re-arms
// the cooldown instead of closing the circuit.
func TestRetryBreakerFailedProbeReopens(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: 40 * time.Millisecond}
	inner := &scriptClient{script: []scriptStep{{resp: overloadedResp}}}
	c := NewRetryClient(clientFromDoer(inner), pol)
	c.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	c.rnd = func() float64 { return 0 }

	c.Do(context.Background(), Request{Op: OpLogin}) // opens (threshold 1)
	time.Sleep(pol.BreakerCooldown + 10*time.Millisecond)
	// The probe also fails → circuit stays open from now.
	if resp, _ := c.Do(context.Background(), Request{Op: OpLogin}); resp.Code != CodeOverloaded {
		t.Fatalf("probe resp = %+v", resp)
	}
	if _, err := c.Do(context.Background(), Request{Op: OpLogin}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after failed probe: err = %v, want ErrCircuitOpen", err)
	}
}

// TestRetryClientFollowsNotPrimary: a not_primary response with a
// redirect address swaps the wrapped client for one wired to the
// advertised primary and re-sends immediately — even a non-idempotent
// enroll, because the role guard refused the request before it could
// execute. The op must land on the primary exactly once, with no
// backoff sleep in between.
func TestRetryClientFollowsNotPrimary(t *testing.T) {
	follower := &scriptClient{script: []scriptStep{
		{resp: Response{Code: CodeNotPrimary, Primary: "primary:1"}},
	}}
	primary := &scriptClient{script: []scriptStep{
		{resp: Response{Code: CodeOK}},
	}}
	var redirectedTo string
	pol := RetryPolicy{Redirect: func(addr string) (Client, error) {
		redirectedTo = addr
		return clientFromDoer(primary), nil
	}}
	c := NewRetryClient(clientFromDoer(follower), pol)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t.Errorf("redirect slept %v; re-send should be immediate", d)
		return nil
	}
	c.rnd = func() float64 { return 0.5 }

	resp, err := c.Do(context.Background(), Request{Op: OpEnroll, User: "alice"})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("redirected enroll = %+v, %v; want ok", resp, err)
	}
	if redirectedTo != "primary:1" {
		t.Fatalf("redirected to %q, want primary:1", redirectedTo)
	}
	if len(follower.calls) != 1 {
		t.Fatalf("follower saw %d calls, want 1", len(follower.calls))
	}
	if len(primary.calls) != 1 {
		t.Fatalf("enroll landed %d times on the primary, want exactly 1", len(primary.calls))
	}
	if got := c.Stats().Redirects; got != 1 {
		t.Fatalf("Stats().Redirects = %d, want 1", got)
	}

	// Follow-up calls go straight to the swapped-in primary.
	if _, err := c.Do(context.Background(), Request{Op: OpLogin, User: "alice"}); err != nil {
		t.Fatalf("post-redirect call: %v", err)
	}
	if len(follower.calls) != 1 || len(primary.calls) != 2 {
		t.Fatalf("post-redirect routing: follower=%d primary=%d, want 1/2",
			len(follower.calls), len(primary.calls))
	}

	// Without a Redirect hook, not_primary is a definitive answer:
	// returned to the caller as-is, never retried.
	lone := &scriptClient{script: []scriptStep{
		{resp: Response{Code: CodeNotPrimary, Primary: "primary:1"}},
	}}
	c2 := NewRetryClient(clientFromDoer(lone), RetryPolicy{})
	resp, err = c2.Do(context.Background(), Request{Op: OpLogin, User: "alice"})
	if err != nil || resp.Code != CodeNotPrimary || resp.Primary != "primary:1" {
		t.Fatalf("unhooked not_primary = %+v, %v; want the refusal passed through", resp, err)
	}
	if len(lone.calls) != 1 {
		t.Fatalf("unhooked not_primary retried: %d calls", len(lone.calls))
	}
}
