package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLimiterBound: with limit L and many competing tasks, the
// observed concurrency must never exceed L.
func TestLimiterBound(t *testing.T) {
	const limit, tasks = 4, 64
	l := NewLimiter(limit)
	if l.Cap() != limit {
		t.Fatalf("Cap = %d, want %d", l.Cap(), limit)
	}
	var cur, max, ran atomic.Int64
	for i := 0; i < tasks; i++ {
		l.Go(func() {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			ran.Add(1)
		})
	}
	l.Drain()
	if ran.Load() != tasks {
		t.Errorf("ran %d tasks, want %d", ran.Load(), tasks)
	}
	if max.Load() > limit {
		t.Errorf("observed %d concurrent tasks, limit %d", max.Load(), limit)
	}
	if l.InFlight() != 0 {
		t.Errorf("InFlight after drain = %d", l.InFlight())
	}
}

// TestLimiterDrainWaits: Drain must not return while a task holds a
// slot.
func TestLimiterDrainWaits(t *testing.T) {
	l := NewLimiter(2)
	release := make(chan struct{})
	var done atomic.Bool
	l.Go(func() { <-release; done.Store(true) })
	drained := make(chan struct{})
	go func() { l.Drain(); close(drained) }()
	select {
	case <-drained:
		t.Fatal("Drain returned with a task in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain never returned")
	}
	if !done.Load() {
		t.Error("task did not complete before Drain returned")
	}
}

// TestLimiterGoContainsPanic: a panicking task must release its slot
// and not crash the process.
func TestLimiterGoContainsPanic(t *testing.T) {
	l := NewLimiter(1)
	l.Go(func() { panic("poisoned connection") })
	l.Drain()
	// The slot must be reusable afterwards.
	var ok atomic.Bool
	l.Go(func() { ok.Store(true) })
	l.Drain()
	if !ok.Load() {
		t.Error("slot not reusable after a panic")
	}
}

// TestLimiterDefaultCap: limit <= 0 selects one slot per CPU, matching
// Map's worker default.
func TestLimiterDefaultCap(t *testing.T) {
	if got := NewLimiter(0).Cap(); got != Default() {
		t.Errorf("default cap = %d, want %d", got, Default())
	}
	if got := NewLimiter(-3).Cap(); got != Default() {
		t.Errorf("negative cap = %d, want %d", got, Default())
	}
}

// TestLimiterAcquireBlocksUntilRelease exercises the raw
// Acquire/Release pairing without Go's goroutine wrapper.
func TestLimiterAcquireBlocksUntilRelease(t *testing.T) {
	l := NewLimiter(1)
	l.Acquire()
	acquired := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.Acquire()
		close(acquired)
		l.Release()
	}()
	select {
	case <-acquired:
		t.Fatal("second Acquire did not block at capacity")
	case <-time.After(20 * time.Millisecond):
	}
	l.Release()
	wg.Wait()
	l.Drain()
}

// TestLimiterAcquireQueued: the bounded wait queue admits up to
// maxQueue waiters, sheds the one that would exceed it with
// ErrSaturated immediately, and honors context expiry while parked.
func TestLimiterAcquireQueued(t *testing.T) {
	l := NewLimiter(1)
	l.Acquire() // saturate the slot

	// maxQueue 0: shed unless a slot is free right now.
	if err := l.AcquireQueued(context.Background(), 0); err != ErrSaturated {
		t.Fatalf("AcquireQueued(0) at capacity: %v, want ErrSaturated", err)
	}

	// Two waiters fit a queue of 2; the third sheds instantly.
	admitted := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { admitted <- l.AcquireQueued(context.Background(), 2) }()
	}
	waitFor(t, func() bool { return l.Waiting() == 2 })
	t0 := time.Now()
	if err := l.AcquireQueued(context.Background(), 2); err != ErrSaturated {
		t.Fatalf("third waiter: %v, want ErrSaturated", err)
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("shed took %s; must be immediate, not queued", d)
	}

	// Draining the slot serves the two queued waiters in turn.
	l.Release()
	if err := <-admitted; err != nil {
		t.Fatalf("first queued waiter: %v", err)
	}
	l.Release()
	if err := <-admitted; err != nil {
		t.Fatalf("second queued waiter: %v", err)
	}
	l.Release()
	if got := l.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d after drain, want 0", got)
	}

	// A queued waiter whose context dies leaves slotless and uncounted.
	l.Acquire()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := l.AcquireQueued(ctx, 4); err == nil {
		t.Fatal("queued waiter with expired context admitted")
	}
	if got := l.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d after context expiry, want 0", got)
	}
	l.Release()
	l.Drain()
}

// TestLimiterAcquireQueuedPreExpired: a pre-expired context never
// admits even with a free slot.
func TestLimiterAcquireQueuedPreExpired(t *testing.T) {
	l := NewLimiter(1)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.AcquireQueued(dead, 8); err == nil {
		t.Fatal("pre-expired context admitted")
	}
	if err := l.AcquireQueued(context.Background(), 0); err != nil {
		t.Fatalf("slot leaked by refused AcquireQueued: %v", err)
	}
	l.Release()
}

// TestLimiterQueuedStress is the -race stress for the bounded wait
// queue: many goroutines hammer AcquireQueued with mixed queue bounds
// and deadlines across the shed, deadline-expiry, and drain paths; at
// the end no slot and no waiter count may have leaked — the full
// capacity must be re-acquirable and Waiting() must read zero. The
// test holds every slot until a bound-0 caller has been refused, so
// the concurrent phase sheds by construction: left to the scheduler,
// 32 goroutines on a loaded machine sometimes never found the limiter
// full.
func TestLimiterQueuedStress(t *testing.T) {
	const (
		capacity   = 4
		goroutines = 32
		iterations = 200
	)
	l := NewLimiter(capacity)
	for range capacity {
		l.Acquire()
	}
	var wg sync.WaitGroup
	var admitted, shed, expired atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%3 == 0 {
					// A third of the load carries a tight deadline that
					// frequently expires in the queue.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*10*time.Microsecond)
				}
				err := l.AcquireQueued(ctx, g%5) // mixed per-priority bounds, incl. 0
				switch err {
				case nil:
					admitted.Add(1)
					if g%4 == 0 {
						time.Sleep(time.Microsecond)
					}
					l.Release()
				case ErrSaturated:
					shed.Add(1)
				default:
					expired.Add(1)
				}
				if cancel != nil {
					cancel()
				}
			}
		}(g)
	}
	waitFor(t, func() bool { return shed.Load() > 0 })
	for range capacity {
		l.Release()
	}
	wg.Wait()
	l.Drain()
	if got := l.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d after stress, want 0", got)
	}
	for i := 0; i < capacity; i++ {
		if err := l.AcquireQueued(context.Background(), 0); err != nil {
			t.Fatalf("slot %d leaked: capacity not re-acquirable after stress: %v", i, err)
		}
	}
	if err := l.AcquireQueued(context.Background(), 0); err != ErrSaturated {
		t.Fatalf("over-capacity acquire = %v, want ErrSaturated; a release leaked", err)
	}
	for i := 0; i < capacity; i++ {
		l.Release()
	}
	t.Logf("admitted=%d shed=%d expired=%d", admitted.Load(), shed.Load(), expired.Load())
	if admitted.Load() == 0 || shed.Load() == 0 {
		t.Error("stress never exercised both the admit and shed paths")
	}
}

// waitFor polls cond until true or the deadline trips the test.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
