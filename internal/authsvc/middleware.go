package authsvc

import (
	"context"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"clickpass/internal/vault"
)

// WithRecover contains panics escaping the rest of the pipeline: the
// request gets a CodeInternal response instead of taking down the
// transport goroutine (and, for TCP, the whole process). Outermost in
// every production chain.
func WithRecover() Middleware {
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req Request) (resp Response) {
			defer func() {
				if r := recover(); r != nil {
					log.Printf("authsvc: handler panicked: %v\n%s", r, debug.Stack())
					resp = Response{Version: Version, Code: CodeInternal, Err: "internal error"}
				}
			}()
			return next.Handle(ctx, req)
		})
	}
}

// WithDeadline attaches a deadline to requests arriving without one,
// and clamps it to the request's propagated budget: a client that
// says it will only wait req.BudgetMs more milliseconds gets a
// deadline of min(d, budget), so work the caller has already
// abandoned is dropped — in the admission queue or at the next
// cooperative check — instead of being served into the void. Compose
// it outside admission so the deadline bounds time queued for a
// limiter slot (queued requests are refused with CodeUnavailable when
// it expires). Inside the service the deadline is checked between
// stages, not mid-syscall: a store call that blocks indefinitely
// still blocks its goroutine — the deadline bounds cooperative work,
// it is not a preemption mechanism. d <= 0 disables the server-side
// default; request budgets are still honored.
func WithDeadline(d time.Duration) Middleware {
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req Request) Response {
			eff := d
			if b := time.Duration(req.BudgetMs) * time.Millisecond; b > 0 && (eff <= 0 || b < eff) {
				eff = b
			}
			if eff > 0 {
				// Tighten only: an already-stricter transport deadline
				// (e.g. the HTTP server's) stands.
				if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > eff {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, eff)
					defer cancel()
				}
			}
			return next.Handle(ctx, req)
		})
	}
}

// WithMetrics records request counts, outcome codes, and latency into
// m. Place it outermost (just inside WithRecover) so every outcome is
// counted — including CodeUnavailable and CodeThrottled responses
// produced by inner middleware, the shed load an operator most needs
// to see under overload — and so latency is the client-observed
// number, queueing included.
func WithMetrics(m *Metrics) Middleware {
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req Request) Response {
			t0 := time.Now()
			// A panicking handler unwinds past the normal observe call;
			// the deferred path records it as CodeInternal (matching the
			// response WithRecover will synthesize) and lets the panic
			// keep propagating — counted, not swallowed.
			panicked := true
			defer func() {
				if panicked {
					m.observe(req.Op, CodeInternal, time.Since(t0))
				}
			}()
			resp := next.Handle(ctx, req)
			panicked = false
			m.observe(req.Op, resp.Code, time.Since(t0))
			return resp
		})
	}
}

// WithUserRate enforces a per-user token bucket: at most burst
// requests back to back, refilling at perSec requests per second.
// Requests without a user (ping) pass through. perSec <= 0 disables
// the middleware. Exceeding the budget returns CodeThrottled — the
// cheap, steady-state complement to the lockout's hard stop. Compose
// it outside WithOverload so a flood aimed at one user is shed
// before it competes for the shared concurrency budget.
//
// The bucket table is partitioned into rateShards independently
// locked maps keyed by FNV-1a of the user — the vault's split,
// reapplied — so concurrent requests for different users do not
// serialize on one mutex the way they did when every bucket lived in
// a single guarded map.
func WithUserRate(perSec float64, burst int) Middleware {
	if perSec <= 0 {
		return func(next Handler) Handler { return next }
	}
	if burst < 1 {
		burst = 1
	}
	rl := newUserRate(perSec, burst)
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req Request) Response {
			if req.User != "" && !rl.allow(req.User, time.Now()) {
				return Response{Version: Version, Code: CodeThrottled, Err: "rate limited"}
			}
			return next.Handle(ctx, req)
		})
	}
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxRateBuckets caps the tracked-user table: attacker-chosen user
// names must not grow server memory without bound. At the cap, a
// sweep drops every bucket that has refilled to full (idle users lose
// nothing by eviction — a fresh bucket starts full).
const maxRateBuckets = 1 << 16

// rateShards is the bucket-table partition count; a power of two so
// the shard pick is a mask, not a division.
const rateShards = 32

type userRate struct {
	perSec float64
	burst  float64
	shards [rateShards]rateShard
}

type rateShard struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

func newUserRate(perSec float64, burst int) *userRate {
	r := &userRate{perSec: perSec, burst: float64(burst)}
	for i := range r.shards {
		r.shards[i].buckets = make(map[string]*bucket)
	}
	return r
}

func (r *userRate) allow(user string, now time.Time) bool {
	sh := &r.shards[vault.FNV32a(user)&(rateShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.buckets[user]
	if !ok {
		if len(sh.buckets) >= maxRateBuckets/rateShards {
			sh.sweep(now, r.perSec, r.burst)
		}
		b = &bucket{tokens: r.burst, last: now}
		sh.buckets[user] = b
	}
	// now is read before the lock is acquired, so two racing requests
	// can reach the bucket out of timestamp order; a negative elapsed
	// must not drain tokens (at high refill rates it would throttle
	// legitimate traffic), so only refill when the clock moved forward.
	if el := now.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * r.perSec
		if b.tokens > r.burst {
			b.tokens = r.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweep evicts this shard's buckets whose elapsed idle time has
// refilled them to full; they are indistinguishable from fresh
// buckets. If every tracked user is mid-burst (pathological), the
// shard briefly exceeds its slice of the cap rather than dropping
// someone's throttle state. Caller holds sh.mu.
func (sh *rateShard) sweep(now time.Time, perSec, burst float64) {
	for user, b := range sh.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*perSec >= burst {
			delete(sh.buckets, user)
		}
	}
}
