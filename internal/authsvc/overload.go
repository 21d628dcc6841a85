package authsvc

import (
	"context"
	"math"
	"strconv"
	"time"

	"clickpass/internal/par"
)

// Priority classifies a request for admission under overload: when
// the wait queue for the shared limiter fills, low-priority work is
// shed first so the capacity that remains goes to the traffic that
// matters most. Logins outrank everything — during a storm the
// product is "users can get in" — while password changes and
// enrollments can wait, and administrative resets ride lowest (they
// are rare, operator-paced, and retryable by construction).
type Priority int

// Admission priorities, highest first.
const (
	// PriorityHigh: logins (and pings — they are cheap health probes
	// whose loss would blind monitoring exactly when it matters).
	PriorityHigh Priority = iota
	// PriorityNormal: password changes and enrollments.
	PriorityNormal
	// PriorityLow: administrative resets and anything unclassified.
	PriorityLow
	numPriorities
)

// String names the priority for metrics labels and log lines.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityNormal:
		return "normal"
	case PriorityLow:
		return "low"
	}
	return "p" + strconv.Itoa(int(p))
}

// PriorityFor maps an op to its admission priority.
func PriorityFor(op Op) Priority {
	switch op {
	case OpLogin, OpPing, OpValidate:
		// Validate normally never reaches admission (WithSession answers
		// it first); the priority covers servers without a session tier,
		// where it is refused cheaply and should not queue behind bulk
		// work to say so.
		return PriorityHigh
	case OpChange, OpEnroll:
		return PriorityNormal
	default:
		return PriorityLow
	}
}

// OverloadPolicy configures WithOverload: how deep the bounded
// admission wait queue may grow. Each lower priority is shed above a
// fixed watermark, a fraction of Queue (DefaultNormalMark,
// DefaultLowMark). Depth at or past a
// priority's budget returns CodeOverloaded immediately — a refusal
// measured in microseconds, not a slot in a queue that will outlive
// the caller's patience. Past Queue itself, everything sheds: the
// hard ceiling that keeps worst-case queueing delay bounded at
// roughly Queue/capacity service times.
type OverloadPolicy struct {
	// Queue bounds the total admission wait queue (the high-priority
	// budget). <= 0 queues every priority without bound, so nothing
	// is shed; a request still leaves the queue with CodeUnavailable
	// once its deadline passes.
	Queue int
	// RetryAfter is the hint returned with every shed response
	// (Retry-After on HTTP); 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
}

// The overload policy's watermarks and default retry hint.
const (
	// DefaultNormalMark sheds changes/enrolls once the queue is half
	// full.
	DefaultNormalMark = 0.5
	// DefaultLowMark sheds resets once the queue is a quarter full.
	DefaultLowMark = 0.25
	// DefaultRetryAfter is the shed-response retry hint.
	DefaultRetryAfter = time.Second
)

// budgets returns the per-priority queue-depth bounds, indexed by
// Priority: all unbounded when Queue <= 0. Every priority gets at
// least depth 1 when Queue > 0, so a watermark rounding to zero
// degrades to "admit only when a slot is free", not "always shed".
func (p OverloadPolicy) budgets() [numPriorities]int {
	var b [numPriorities]int
	if p.Queue <= 0 {
		for i := range b {
			b[i] = math.MaxInt
		}
		return b
	}
	b[PriorityHigh] = p.Queue
	b[PriorityNormal] = max(1, int(float64(p.Queue)*DefaultNormalMark))
	b[PriorityLow] = max(1, int(float64(p.Queue)*DefaultLowMark))
	return b
}

func (p OverloadPolicy) retryAfter() time.Duration {
	if p.RetryAfter <= 0 {
		return DefaultRetryAfter
	}
	return p.RetryAfter
}

// reqMeta is the per-request annotation channel between middleware
// stages: WithLog installs it, WithOverload fills in what the log
// line cannot otherwise see (queue wait, shed/deadline outcome).
type reqMeta struct {
	queueWait time.Duration
	shed      bool
	deadline  bool
}

type reqMetaKey struct{}

// metaFrom returns the request's annotation record, or nil when no
// logging middleware installed one.
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(reqMetaKey{}).(*reqMeta)
	return m
}

// WithOverload is priority admission over a shared limiter — the
// single concurrency budget all transports draw from, closing the
// seam where net/http used to spawn unboundedly past the TCP worker
// pool. Each request joins the limiter's wait queue under its
// priority's depth budget (see OverloadPolicy); a request that would
// push the queue past its watermark is refused with CodeOverloaded in
// microseconds, and a request whose deadline expires while queued —
// or that emerges from the queue with its budget already burned — is
// dropped with CodeUnavailable before touching the vault. m receives
// shed counts by priority and queue-wait observations, and tracks the
// in-flight gauge over exactly the admitted requests, so its
// high-water mark proves the shared limiter caps the combined
// transports.
func WithOverload(lim *par.Limiter, pol OverloadPolicy, m *Metrics) Middleware {
	budgets := pol.budgets()
	retryMs := int(pol.retryAfter().Milliseconds())
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req Request) Response {
			pr := PriorityFor(req.Op)
			t0 := time.Now()
			err := lim.AcquireQueued(ctx, budgets[pr])
			if err == par.ErrSaturated {
				m.observeShed(pr)
				if meta := metaFrom(ctx); meta != nil {
					meta.shed = true
				}
				return Response{Version: Version, Code: CodeOverloaded,
					Err: "overloaded: " + pr.String() + "-priority queue full", RetryAfterMs: retryMs}
			}
			if err != nil {
				if meta := metaFrom(ctx); meta != nil {
					meta.deadline = true
				}
				return Response{Version: Version, Code: CodeUnavailable, Err: "deadline expired in admission queue"}
			}
			defer lim.Release()
			wait := time.Since(t0)
			m.observeQueueWait(wait, pr)
			if meta := metaFrom(ctx); meta != nil {
				meta.queueWait = wait
			}
			// The slot arrived, but possibly too late: never spend vault
			// and hash work on a request whose caller has already given
			// up. (ctx.Err() is a cheap atomic read, not a syscall.)
			if ctx.Err() != nil {
				if meta := metaFrom(ctx); meta != nil {
					meta.deadline = true
				}
				return Response{Version: Version, Code: CodeUnavailable, Err: "deadline exceeded"}
			}
			m.enter()
			defer m.leave()
			return next.Handle(ctx, req)
		})
	}
}
