package authsvc

import (
	"context"
	"sync"
	"testing"
	"time"

	"clickpass/internal/par"
)

// echoHandler returns a canned response, optionally after blocking on
// a gate — the probe handler for pipeline tests.
func echoHandler(resp Response, gate <-chan struct{}) Handler {
	return HandlerFunc(func(ctx context.Context, req Request) Response {
		if gate != nil {
			<-gate
		}
		return resp
	})
}

func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next Handler) Handler {
			return HandlerFunc(func(ctx context.Context, req Request) Response {
				order = append(order, name)
				return next.Handle(ctx, req)
			})
		}
	}
	h := Chain(echoHandler(Response{Code: CodeOK}, nil), tag("outer"), tag("inner"))
	h.Handle(context.Background(), Request{Op: OpPing})
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Errorf("chain order = %v, want [outer inner]", order)
	}
}

func TestWithRecoverContainsPanic(t *testing.T) {
	h := Chain(HandlerFunc(func(ctx context.Context, req Request) Response {
		panic("poisoned request")
	}), WithRecover())
	resp := h.Handle(context.Background(), Request{Op: OpPing})
	if resp.Code != CodeInternal {
		t.Errorf("panicked handler: code = %q, want %q", resp.Code, CodeInternal)
	}
}

// TestWithAdmissionCapsConcurrency: under the zero OverloadPolicy,
// admission must cap concurrent handling at the limiter's slots, queue
// excess requests without shedding any, and refuse a request whose
// context dies while it waits.
func TestWithAdmissionCapsConcurrency(t *testing.T) {
	lim := par.NewLimiter(2)
	gate := make(chan struct{})
	var m Metrics
	h := Chain(echoHandler(Response{Code: CodeOK}, gate),
		WithMetrics(&m), WithOverload(lim, OverloadPolicy{}, &m))

	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := h.Handle(context.Background(), Request{Op: OpPing}); !resp.OK() {
				t.Errorf("admitted request failed: %+v", resp)
			}
		}()
	}
	// Wait until both slots are held, then verify nothing beyond the
	// cap is being handled.
	deadline := time.Now().Add(2 * time.Second)
	for m.InFlight() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d, want 2", m.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	// A request with an already-expired context must be refused even
	// though it would eventually get a slot.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if resp := h.Handle(expired, Request{Op: OpPing}); resp.Code != CodeUnavailable {
		t.Errorf("expired-context admission: code = %q, want %q", resp.Code, CodeUnavailable)
	}
	close(gate)
	wg.Wait()
	if peak := m.Peak(); peak != 2 {
		t.Errorf("in-flight peak = %d, want exactly the 2-slot cap", peak)
	}
	// Counts sit outside admission: the 5 admitted requests AND the
	// refused one are all visible, broken down by outcome code.
	if n := promValue(t, &m, "authsvc_request_duration_seconds_count"); n != 6 {
		t.Errorf("counted %v requests, want 6 (5 ok + 1 refused)", n)
	}
	ok := promValue(t, &m, `authsvc_responses_total{code="ok"}`)
	refused := promValue(t, &m, `authsvc_responses_total{code="unavailable"}`)
	if ok != 5 || refused != 1 {
		t.Errorf("by-code counts = %v ok / %v unavailable, want 5 / 1", ok, refused)
	}
}

func TestWithDeadlineAddsDeadline(t *testing.T) {
	var saw time.Duration
	h := Chain(HandlerFunc(func(ctx context.Context, req Request) Response {
		if d, ok := ctx.Deadline(); ok {
			saw = time.Until(d)
		}
		return Response{Code: CodeOK}
	}), WithDeadline(time.Minute))
	h.Handle(context.Background(), Request{Op: OpPing})
	if saw <= 0 || saw > time.Minute {
		t.Errorf("handler saw deadline %v, want (0, 1m]", saw)
	}
	// An existing (tighter) deadline is respected, not replaced.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	h.Handle(ctx, Request{Op: OpPing})
	if saw > time.Second {
		t.Errorf("existing deadline replaced: handler saw %v", saw)
	}
}

func TestWithUserRateThrottles(t *testing.T) {
	h := Chain(echoHandler(Response{Code: CodeOK}, nil), WithUserRate(1000, 2))
	ctx := context.Background()
	// Burst of 2 passes; the third is throttled.
	for i := 0; i < 2; i++ {
		if resp := h.Handle(ctx, Request{Op: OpLogin, User: "u"}); !resp.OK() {
			t.Fatalf("burst request %d refused: %+v", i, resp)
		}
	}
	if resp := h.Handle(ctx, Request{Op: OpLogin, User: "u"}); resp.Code != CodeThrottled {
		t.Errorf("over-burst: code = %q, want %q", resp.Code, CodeThrottled)
	}
	// Other users have their own buckets; user-less ops pass through.
	if resp := h.Handle(ctx, Request{Op: OpLogin, User: "v"}); !resp.OK() {
		t.Errorf("other user throttled: %+v", resp)
	}
	if resp := h.Handle(ctx, Request{Op: OpPing}); !resp.OK() {
		t.Errorf("user-less op throttled: %+v", resp)
	}
	// At 1000 req/s the bucket refills within a few milliseconds.
	deadline := time.Now().Add(time.Second)
	for {
		if resp := h.Handle(ctx, Request{Op: OpLogin, User: "u"}); resp.OK() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWithUserRateDisabled(t *testing.T) {
	h := Chain(echoHandler(Response{Code: CodeOK}, nil), WithUserRate(0, 1))
	for i := 0; i < 100; i++ {
		if resp := h.Handle(context.Background(), Request{Op: OpLogin, User: "u"}); !resp.OK() {
			t.Fatalf("disabled rate limiter refused request %d: %+v", i, resp)
		}
	}
}

// TestMetricsCountsInExposition: requests through WithMetrics and
// WithOverload show up on the exposition by op and by code, the
// in-flight gauge returns to zero, and the latency max is within the
// latency sum.
func TestMetricsCountsInExposition(t *testing.T) {
	var m Metrics
	h := Chain(testService(t, 3), WithMetrics(&m), WithOverload(par.NewLimiter(1), OverloadPolicy{}, &m))
	ctx := context.Background()
	h.Handle(ctx, Request{Op: OpEnroll, User: "m", Clicks: clicks(0)})
	h.Handle(ctx, Request{Op: OpLogin, User: "m", Clicks: clicks(0)})
	h.Handle(ctx, Request{Op: OpLogin, User: "m", Clicks: clicks(9)})

	for series, want := range map[string]float64{
		"authsvc_request_duration_seconds_count": 3,
		`authsvc_requests_total{op="login"}`:     2,
		`authsvc_requests_total{op="enroll"}`:    1,
		`authsvc_responses_total{code="ok"}`:     2,
		`authsvc_responses_total{code="denied"}`: 1,
		"authsvc_in_flight":                      0,
	} {
		if got := promValue(t, &m, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if peak := promValue(t, &m, "authsvc_in_flight_peak"); peak < 1 {
		t.Errorf("peak = %v, want >= 1", peak)
	}
	latMax := promValue(t, &m, "authsvc_request_duration_seconds_max")
	if sum := promValue(t, &m, "authsvc_request_duration_seconds_sum"); latMax <= 0 || latMax > sum {
		t.Errorf("latency max = %v, want in (0, sum %v]", latMax, sum)
	}
}

// TestWithMetricsCountsPanics: a panicking handler must still be
// visible in the counters as CodeInternal — the failures an operator
// most needs to see — while the panic continues to WithRecover.
func TestWithMetricsCountsPanics(t *testing.T) {
	var m Metrics
	h := Chain(HandlerFunc(func(ctx context.Context, req Request) Response {
		panic("poisoned request")
	}), WithRecover(), WithMetrics(&m))
	resp := h.Handle(context.Background(), Request{Op: OpLogin})
	if resp.Code != CodeInternal {
		t.Fatalf("recovered response code = %q", resp.Code)
	}
	if n := promValue(t, &m, `authsvc_responses_total{code="internal"}`); n != 1 {
		t.Errorf("panicked request counted %v times as internal, want 1", n)
	}
	if n := promValue(t, &m, "authsvc_request_duration_seconds_count"); n != 1 {
		t.Errorf("requests = %v, want 1", n)
	}
}
