package par

import (
	"context"
	"errors"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Limiter is the streaming counterpart of Map: a semaphore-bounded
// worker pool for workloads that arrive one at a time (accepted
// connections, queued jobs) instead of as an indexed batch. It shares
// the package's semantics — a configurable concurrency limit
// defaulting to one slot per CPU, and a graceful drain that lets every
// admitted task finish — without the ordered-results machinery batch
// callers need.
//
// The zero value is not usable; construct with NewLimiter.
type Limiter struct {
	sem chan struct{}
	wg  sync.WaitGroup
	// waiting counts callers parked in AcquireQueued — the wait-queue
	// depth an overload policy reads to decide when to shed.
	waiting atomic.Int64
}

// NewLimiter returns a limiter admitting at most limit concurrent
// tasks. limit <= 0 selects Default() (one per schedulable CPU).
func NewLimiter(limit int) *Limiter {
	if limit <= 0 {
		limit = Default()
	}
	return &Limiter{sem: make(chan struct{}, limit)}
}

// Cap returns the concurrency limit.
func (l *Limiter) Cap() int { return cap(l.sem) }

// Acquire blocks until a slot is free and claims it. Every Acquire
// must be paired with exactly one Release.
func (l *Limiter) Acquire() {
	l.sem <- struct{}{}
	l.wg.Add(1)
}

// ErrSaturated is returned by AcquireQueued when the bounded wait
// queue is full: the request would eventually be served far past any
// useful deadline, so it is refused immediately instead of parking.
var ErrSaturated = errors.New("par: limiter wait queue full")

// AcquireQueued claims a slot for a request-scoped caller whose
// deadline must bound queueing, not just handling. It returns nil
// holding a slot, or an error holding none: ctx's error when ctx is
// done first (a pre-expired ctx never admits, even with a slot free),
// and ErrSaturated at once when no slot is free and maxQueue callers
// (including this one) are already waiting — never queue work that
// will only be served after its deadline. maxQueue <= 0 means "shed
// unless a slot is free right now". Callers with different
// maxQueue values may share one limiter: each bounds the depth *it*
// is willing to join, which is how priority admission is built —
// low-priority work passes a smaller bound and sheds first as the
// queue fills.
func (l *Limiter) AcquireQueued(ctx context.Context, maxQueue int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case l.sem <- struct{}{}:
		l.wg.Add(1)
		return nil
	default:
	}
	if maxQueue <= 0 {
		return ErrSaturated
	}
	if n := l.waiting.Add(1); n > int64(maxQueue) {
		l.waiting.Add(-1)
		return ErrSaturated
	}
	defer l.waiting.Add(-1)
	select {
	case l.sem <- struct{}{}:
		l.wg.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Waiting returns the current wait-queue depth: callers parked in
// AcquireQueued. It is the watermark signal overload policies read.
func (l *Limiter) Waiting() int { return int(l.waiting.Load()) }

// Release returns a slot claimed by Acquire or AcquireQueued.
func (l *Limiter) Release() {
	<-l.sem
	l.wg.Done()
}

// Go runs fn on its own goroutine once a slot is free, blocking the
// caller until admission. A panicking task is contained (same policy
// as Map's per-task recovery): its slot is released and the process
// survives, so one poisoned connection cannot take down a server or
// leak capacity from its accept loop.
func (l *Limiter) Go(fn func()) {
	l.Acquire()
	go func() {
		defer l.Release()
		defer func() {
			if r := recover(); r != nil {
				log.Printf("par: task panicked: %v\n%s", r, debug.Stack())
			}
		}()
		fn()
	}()
}

// Drain blocks until every admitted task has released its slot. It
// does not close admission — the caller stops submitting (e.g. by
// closing its listener) before draining.
func (l *Limiter) Drain() { l.wg.Wait() }

// InFlight returns the number of currently admitted tasks.
func (l *Limiter) InFlight() int { return len(l.sem) }
