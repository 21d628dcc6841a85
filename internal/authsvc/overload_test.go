package authsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"clickpass/internal/par"
)

// blockingHandler parks every request until released — the stand-in
// for a saturated service.
type blockingHandler struct {
	entered chan struct{}
	release chan struct{}
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{entered: make(chan struct{}, 1024), release: make(chan struct{})}
}

func (h *blockingHandler) Handle(ctx context.Context, req Request) Response {
	h.entered <- struct{}{}
	<-h.release
	return Response{Version: Version, Code: CodeOK}
}

// TestWithOverloadPrioritySheds: with the limiter saturated and the
// queue filling, low-priority work sheds at its watermark while
// logins still queue — and the shed response is CodeOverloaded with a
// retry hint, returned without waiting.
func TestWithOverloadPrioritySheds(t *testing.T) {
	lim := par.NewLimiter(1)
	var m Metrics
	pol := OverloadPolicy{Queue: 4, RetryAfter: 250 * time.Millisecond}
	blocking := newBlockingHandler()
	h := Chain(blocking, WithOverload(lim, pol, &m))

	// Saturate the single slot.
	go h.Handle(context.Background(), Request{Op: OpLogin, User: "holder"})
	<-blocking.entered

	// Queue one login (depth 1 = low-priority budget for Queue=4).
	loginDone := make(chan Response, 1)
	go func() { loginDone <- h.Handle(context.Background(), Request{Op: OpLogin, User: "queued"}) }()
	waitDepth(t, lim, 1)

	// A reset (low priority, budget max(1, 4*0.25)=1) must shed now…
	t0 := time.Now()
	resp := h.Handle(context.Background(), Request{Op: OpReset, User: "x"})
	shedLat := time.Since(t0)
	if resp.Code != CodeOverloaded {
		t.Fatalf("low-priority at watermark: %+v, want CodeOverloaded", resp)
	}
	if resp.RetryAfterMs != 250 {
		t.Errorf("RetryAfterMs = %d, want 250", resp.RetryAfterMs)
	}
	if shedLat > 100*time.Millisecond {
		t.Errorf("shed took %s; refusals must not queue", shedLat)
	}
	// …while another login still fits the high-priority budget (4).
	loginDone2 := make(chan Response, 1)
	go func() { loginDone2 <- h.Handle(context.Background(), Request{Op: OpLogin, User: "queued2"}) }()
	waitDepth(t, lim, 2)

	// Release everything; queued logins must be served, not shed.
	close(blocking.release)
	for i, ch := range []chan Response{loginDone, loginDone2} {
		if resp := <-ch; resp.Code != CodeOK {
			t.Errorf("queued login %d: %+v, want CodeOK", i, resp)
		}
	}
	if m.Sheds() != 1 {
		t.Errorf("shed counter = %d, want 1", m.Sheds())
	}
	if n := promValue(t, &m, `authsvc_shed_total{priority="low"}`); n != 1 {
		t.Errorf(`authsvc_shed_total{priority="low"} = %v, want 1`, n)
	}
}

// TestWithOverloadHardCeiling: past the full queue bound even logins
// shed — the hard ceiling that keeps worst-case queueing delay
// bounded.
func TestWithOverloadHardCeiling(t *testing.T) {
	lim := par.NewLimiter(1)
	pol := OverloadPolicy{Queue: 2}
	blocking := newBlockingHandler()
	h := Chain(blocking, WithOverload(lim, pol, nil))

	go h.Handle(context.Background(), Request{Op: OpLogin, User: "holder"})
	<-blocking.entered
	results := make(chan Response, 2)
	for i := 0; i < 2; i++ {
		go func() { results <- h.Handle(context.Background(), Request{Op: OpLogin, User: "q"}) }()
	}
	waitDepth(t, lim, 2)
	if resp := h.Handle(context.Background(), Request{Op: OpLogin, User: "over"}); resp.Code != CodeOverloaded {
		t.Fatalf("login past hard ceiling: %+v, want CodeOverloaded", resp)
	}
	close(blocking.release)
	for i := 0; i < 2; i++ {
		if resp := <-results; resp.Code != CodeOK {
			t.Errorf("queued login %d: %+v", i, resp)
		}
	}
}

// TestWithOverloadDeadlineInQueue: a request whose budget expires
// while parked in the admission queue comes back CodeUnavailable —
// and one that expires between admission and handling is dropped
// before the handler runs.
func TestWithOverloadDeadlineInQueue(t *testing.T) {
	lim := par.NewLimiter(1)
	blocking := newBlockingHandler()
	h := Chain(blocking, WithDeadline(0), WithOverload(lim, OverloadPolicy{Queue: 8}, nil))

	go h.Handle(context.Background(), Request{Op: OpLogin, User: "holder"})
	<-blocking.entered
	// BudgetMs rides the request and becomes the context deadline.
	resp := h.Handle(context.Background(), Request{Op: OpLogin, User: "impatient", BudgetMs: 20})
	if resp.Code != CodeUnavailable {
		t.Fatalf("budget-expired-in-queue: %+v, want CodeUnavailable", resp)
	}
	close(blocking.release)
	lim.Drain()
	if got := lim.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d, want 0", got)
	}
}

// TestWithDeadlineBudgetClamps: the propagated budget tightens the
// server default but never loosens an existing stricter deadline.
func TestWithDeadlineBudgetClamps(t *testing.T) {
	seen := make(chan time.Duration, 1)
	h := Chain(HandlerFunc(func(ctx context.Context, req Request) Response {
		dl, ok := ctx.Deadline()
		if !ok {
			seen <- -1
		} else {
			seen <- time.Until(dl)
		}
		return Response{Code: CodeOK}
	}), WithDeadline(30*time.Second))

	h.Handle(context.Background(), Request{Op: OpPing, BudgetMs: 50})
	if d := <-seen; d <= 0 || d > 60*time.Millisecond {
		t.Errorf("budget 50ms produced deadline %s", d)
	}
	h.Handle(context.Background(), Request{Op: OpPing})
	if d := <-seen; d < 20*time.Second {
		t.Errorf("no budget: deadline %s, want the 30s server default", d)
	}
	// An existing 10ms transport deadline beats a 10s budget.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	h.Handle(ctx, Request{Op: OpPing, BudgetMs: 10_000})
	if d := <-seen; d > 20*time.Millisecond {
		t.Errorf("budget loosened the transport deadline to %s", d)
	}
}

// TestWithLogEmitsStructuredLines: one JSON line per request with op,
// code, latency, and — for shed requests — the overload outcome the
// admission stage annotated.
func TestWithLogEmitsStructuredLines(t *testing.T) {
	var buf bytes.Buffer
	lim := par.NewLimiter(1)
	blocking := newBlockingHandler()
	h := Chain(blocking, WithLog(&buf), WithOverload(lim, OverloadPolicy{Queue: 1}, nil))

	holderDone := make(chan Response, 1)
	go func() { holderDone <- h.Handle(context.Background(), Request{Op: OpLogin, User: "holder"}) }()
	<-blocking.entered
	done := make(chan Response, 1)
	go func() { done <- h.Handle(context.Background(), Request{Op: OpLogin, User: "queued"}) }()
	waitDepth(t, lim, 1)
	// Low-priority shed at depth 1.
	if resp := h.Handle(context.Background(), Request{Op: OpReset, User: "admin"}); resp.Code != CodeOverloaded {
		t.Fatalf("expected shed, got %+v", resp)
	}
	close(blocking.release)
	// Once Handle returns, that request's log line is written.
	<-holderDone
	<-done

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d log lines, want 3:\n%s", len(lines), buf.String())
	}
	var sawShed, sawServed bool
	ids := map[uint64]bool{}
	for _, line := range lines {
		var rec struct {
			ID    uint64 `json:"id"`
			Op    Op     `json:"op"`
			User  string `json:"user"`
			Code  Code   `json:"code"`
			LatUs int64  `json:"lat_us"`
			Shed  bool   `json:"shed"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if ids[rec.ID] {
			t.Errorf("duplicate request id %d", rec.ID)
		}
		ids[rec.ID] = true
		if rec.Code == CodeOverloaded {
			sawShed = true
			if !rec.Shed || rec.Op != OpReset {
				t.Errorf("shed line missing annotation: %q", line)
			}
		}
		if rec.Code == CodeOK {
			sawServed = true
		}
	}
	if !sawShed || !sawServed {
		t.Errorf("log missed an outcome: shed=%v served=%v\n%s", sawShed, sawServed, buf.String())
	}
}

// TestWithLogConcurrentLinesDoNotInterleave: parallel requests must
// produce whole, parseable lines.
func TestWithLogConcurrentLinesDoNotInterleave(t *testing.T) {
	var buf syncBuffer
	h := Chain(HandlerFunc(func(ctx context.Context, req Request) Response {
		return Response{Code: CodeOK}
	}), WithLog(&buf))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				h.Handle(context.Background(), Request{Op: OpPing})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 16*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 16*50)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved log line: %q", line)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer; WithLog serializes its
// writes, but the test's final read must also be safe.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitDepth polls until the limiter's wait queue reaches depth.
func waitDepth(t *testing.T, lim *par.Limiter, depth int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for lim.Waiting() < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", depth, lim.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
}
