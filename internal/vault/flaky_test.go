package vault

import (
	"errors"
	"testing"
	"time"

	"clickpass/internal/passpoints"
)

func flakyRecord(user string) *passpoints.Record {
	return &passpoints.Record{
		User: user, Kind: passpoints.KindCentered,
		SquareSidePx: 13, Iterations: 2,
		Salt: []byte{1, 2, 3, 4}, Digest: []byte{5, 6, 7, 8},
	}
}

// TestFlakyDeterministicPerSeed: the same seed over the same operation
// order yields the exact same fault schedule.
func TestFlakyDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		f := NewFlaky(NewSharded(0), FlakyOptions{Seed: seed, ErrRate: 0.4})
		if err := f.Put(flakyRecord("u")); err != nil && !errors.Is(err, ErrInjected) {
			t.Fatal(err)
		}
		faults := make([]bool, 300)
		for i := range faults {
			_, err := f.Get("u")
			faults[i] = errors.Is(err, ErrInjected)
		}
		return faults
	}
	a, b := run(99), run(99)
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] {
			injected++
		}
	}
	if injected < 60 || injected > 180 {
		t.Errorf("err=0.4 over 300 gets injected %d faults; schedule looks wrong", injected)
	}
}

// TestFlakyNeverFalseNotFound: an injected read failure must come back
// ErrInjected — a false ErrNotFound would make the auth service burn a
// lockout attempt on an infrastructure fault.
func TestFlakyNeverFalseNotFound(t *testing.T) {
	f := NewFlaky(NewSharded(0), FlakyOptions{Seed: 3, ErrRate: 0.5})
	if err := retryPut(f, flakyRecord("alice")); err != nil {
		t.Fatal(err)
	}
	var sawInjected bool
	for i := 0; i < 200; i++ {
		rec, err := f.Get("alice")
		switch {
		case err == nil:
			if rec.User != "alice" {
				t.Fatalf("got record %+v", rec)
			}
		case errors.Is(err, ErrInjected):
			sawInjected = true
		default:
			t.Fatalf("Get(alice) = %v; existing user must never see %v", err, err)
		}
		if errors.Is(err, ErrNotFound) {
			t.Fatal("injected fault surfaced as ErrNotFound")
		}
	}
	if !sawInjected {
		t.Error("err=0.5 over 200 gets never injected; wrapper inert?")
	}
}

// TestFlakyFaultBeforeMutation: an injected Put error leaves the
// wrapped store untouched — no half-applied state.
func TestFlakyFaultBeforeMutation(t *testing.T) {
	inner := NewSharded(0)
	f := NewFlaky(inner, FlakyOptions{Seed: 1, ErrRate: 1})
	if err := f.Put(flakyRecord("ghost")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put = %v, want ErrInjected at rate 1", err)
	}
	if inner.Len() != 0 {
		t.Fatalf("failed Put reached the wrapped store: %d records", inner.Len())
	}
	// Administrative surfaces are never faulted.
	if got := f.Len(); got != 0 {
		t.Errorf("Len() = %d", got)
	}
	if users := f.Users(); len(users) != 0 {
		t.Errorf("Users() = %v", users)
	}
}

// TestFlakyStallEvery: every Nth mutation stalls for the configured
// duration — the fsync-pause shape.
func TestFlakyStallEvery(t *testing.T) {
	f := NewFlaky(NewSharded(0), FlakyOptions{Seed: 1, StallEvery: 3, Stall: 30 * time.Millisecond})
	var slow int
	for i := 0; i < 6; i++ {
		t0 := time.Now()
		_ = f.Replace(flakyRecord("u"))
		if time.Since(t0) >= 25*time.Millisecond {
			slow++
		}
	}
	if slow != 2 {
		t.Fatalf("6 mutations with StallEvery=3 stalled %d times, want 2", slow)
	}
}

// TestFlakyPreservesLockoutStore: wrapping a LockoutStore backend must
// keep the extension visible (the auth service type-asserts it), and
// counter writes go through the fault schedule.
func TestFlakyPreservesLockoutStore(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 2, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	f := NewFlaky(d, FlakyOptions{Seed: 5, ErrRate: 0.5})
	locks, ok := f.(LockoutStore)
	if !ok {
		t.Fatal("NewFlaky dropped the LockoutStore extension")
	}
	var injected, applied int
	for i := 0; injected == 0 || applied == 0; i++ {
		if i > 500 {
			t.Fatalf("500 SetLockout calls: injected=%d applied=%d", injected, applied)
		}
		if err := locks.SetLockout("bob", 3); errors.Is(err, ErrInjected) {
			injected++
		} else if err != nil {
			t.Fatal(err)
		} else {
			applied++
		}
	}
	if got := locks.Lockouts()["bob"]; got != 3 {
		t.Fatalf("Lockouts()[bob] = %d, want 3", got)
	}

	// A plain in-memory store must NOT grow the extension.
	if _, ok := NewFlaky(NewSharded(0), FlakyOptions{Seed: 1}).(LockoutStore); ok {
		t.Fatal("NewFlaky invented a LockoutStore over a plain store")
	}
}

// retryPut retries past injected faults until the mutation lands.
func retryPut(s Store, rec *passpoints.Record) error {
	for i := 0; i < 100; i++ {
		err := s.Put(rec)
		if !errors.Is(err, ErrInjected) {
			return err
		}
	}
	return errors.New("Put never got past the fault injector")
}

// TestParseFlakySpec covers pwserver's -chaos grammar: seed, err,
// latrate and lat, and the specs it refuses.
func TestParseFlakySpec(t *testing.T) {
	o, err := ParseFlakySpec("seed=7,err=0.01,latrate=0.05,lat=25ms")
	if err != nil {
		t.Fatal(err)
	}
	want := FlakyOptions{Seed: 7, ErrRate: 0.01, LatencyRate: 0.05, Latency: 25 * time.Millisecond}
	if o != want {
		t.Fatalf("parsed %+v, want %+v", o, want)
	}
	if o, err := ParseFlakySpec("  "); err != nil || o != (FlakyOptions{}) {
		t.Errorf("empty spec: %+v, %v; want zero options, nil", o, err)
	}
	for _, bad := range []string{"err=2", "err=-0.1", "lat=xyz", "lat=-1ms", "seed=-1", "bogus=1", "err", "stall=5"} {
		if _, err := ParseFlakySpec(bad); err == nil {
			t.Errorf("ParseFlakySpec(%q) accepted", bad)
		}
	}
}
