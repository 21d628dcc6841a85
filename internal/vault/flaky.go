package vault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"clickpass/internal/passpoints"
)

// ErrInjected is the error returned by a Flaky store's injected
// faults. It is distinct from ErrNotFound and ErrExists so callers
// (the auth service) can tell an infrastructure failure from a
// semantic miss — injected faults must never read as "wrong password"
// or "user exists".
var ErrInjected = errors.New("vault: injected fault")

// FlakyOptions configures NewFlaky, the auth service's one fault
// injector (pwserver's -chaos, the service's fault-torture suite, the
// overload tests). All fault decisions come from one seeded splitmix64
// stream guarded by a mutex, so a run is deterministic for a fixed
// operation order: same seed, same faults.
type FlakyOptions struct {
	// Seed initializes the fault stream; 0 means 1.
	Seed uint64
	// ErrRate is the probability ([0,1]) an operation fails with
	// ErrInjected instead of reaching the wrapped store.
	ErrRate float64
	// LatencyRate is the probability ([0,1]) an operation is delayed
	// by Latency before proceeding.
	LatencyRate float64
	// Latency is the injected spike duration; 0 selects 5ms.
	Latency time.Duration
	// StallEvery, when > 0, stalls every StallEvery-th *mutation* for
	// Stall — the shape of a periodic fsync pause on a saturated disk.
	StallEvery int
	// Stall is the mutation-stall duration; 0 selects 20ms.
	Stall time.Duration
}

// ParseFlakySpec parses a pwserver -chaos specification: a
// comma-separated list of key=value pairs, e.g.
//
//	seed=7,err=0.01,latrate=0.05,lat=25ms
//
// Keys: seed (uint), err (probability of an injected error), latrate
// (probability of a latency spike), lat (spike duration). Unknown keys
// and out-of-range probabilities are errors; an empty spec returns the
// zero FlakyOptions, which injects nothing. StallEvery is not exposed.
func ParseFlakySpec(spec string) (FlakyOptions, error) {
	var o FlakyOptions
	if strings.TrimSpace(spec) == "" {
		return o, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return o, fmt.Errorf("vault: fault spec %q: want key=value", part)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return o, fmt.Errorf("vault: fault seed %q: %w", val, err)
			}
			o.Seed = n
		case "err", "latrate":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return o, fmt.Errorf("vault: fault rate %s=%q: want a probability in [0,1]", key, val)
			}
			if key == "err" {
				o.ErrRate = p
			} else {
				o.LatencyRate = p
			}
		case "lat":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return o, fmt.Errorf("vault: fault latency %q: want a duration", val)
			}
			o.Latency = d
		default:
			return o, fmt.Errorf("vault: unknown fault key %q (want seed, err, latrate, lat)", key)
		}
	}
	return o, nil
}

func (o FlakyOptions) latency() time.Duration {
	if o.Latency <= 0 {
		return 5 * time.Millisecond
	}
	return o.Latency
}

func (o FlakyOptions) stall() time.Duration {
	if o.Stall <= 0 {
		return 20 * time.Millisecond
	}
	return o.Stall
}

// Flaky wraps a Store with deterministic, seeded fault injection:
// latency spikes and injected errors on every operation, plus
// periodic fsync-style stalls on mutations. Reads that fail return
// ErrInjected — never a false ErrNotFound — and mutations fail
// *before* reaching the wrapped store, so an injected error never
// leaves half-applied state: the wrapped store either saw the whole
// operation or none of it. Construct with NewFlaky, which preserves
// the wrapped store's LockoutStore extension.
type Flaky struct {
	inner Store
	opts  FlakyOptions

	mu        sync.Mutex
	rngState  uint64
	mutations int
}

// NewFlaky wraps inner with fault injection. When inner also
// implements LockoutStore (the durable backend), the returned store
// does too — with the same injected faults on counter writes — so the
// auth service's type assertion sees the store it would see in
// production.
func NewFlaky(inner Store, opts FlakyOptions) Store {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	f := &Flaky{inner: inner, opts: opts, rngState: seed}
	if locks, ok := inner.(LockoutStore); ok {
		return &flakyLockout{Flaky: f, locks: locks}
	}
	return f
}

// next returns the next value in [0,1) from the seeded stream.
func (f *Flaky) next() float64 {
	f.mu.Lock()
	f.rngState += 0x9e3779b97f4a7c15
	z := f.rngState
	f.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// fault runs the read-path fault schedule: maybe a latency spike,
// maybe an injected error.
func (f *Flaky) fault() error {
	if f.opts.LatencyRate > 0 && f.next() < f.opts.LatencyRate {
		time.Sleep(f.opts.latency())
	}
	if f.opts.ErrRate > 0 && f.next() < f.opts.ErrRate {
		return ErrInjected
	}
	return nil
}

// mutFault runs the mutation fault schedule: the read-path faults
// plus the periodic fsync-style stall.
func (f *Flaky) mutFault() error {
	if f.opts.StallEvery > 0 {
		f.mu.Lock()
		f.mutations++
		stall := f.mutations%f.opts.StallEvery == 0
		f.mu.Unlock()
		if stall {
			time.Sleep(f.opts.stall())
		}
	}
	return f.fault()
}

// Put stores a record for a new user, unless a fault fires first.
func (f *Flaky) Put(rec *passpoints.Record) error {
	if err := f.mutFault(); err != nil {
		return err
	}
	return f.inner.Put(rec)
}

// Replace stores a record, overwriting any existing one, unless a
// fault fires first.
func (f *Flaky) Replace(rec *passpoints.Record) error {
	if err := f.mutFault(); err != nil {
		return err
	}
	return f.inner.Replace(rec)
}

// Get returns a copy of user's record; injected failures return
// ErrInjected, never a false ErrNotFound.
func (f *Flaky) Get(user string) (*passpoints.Record, error) {
	if err := f.fault(); err != nil {
		return nil, err
	}
	return f.inner.Get(user)
}

// GetPacked returns user's packed record, with Get's faults.
func (f *Flaky) GetPacked(user string) (passpoints.Packed, error) {
	if err := f.fault(); err != nil {
		return passpoints.Packed{}, err
	}
	return f.inner.GetPacked(user)
}

// Delete removes a user's record. Deletes have no error return in the
// Store contract, so injected errors degrade to a latency spike (and
// the periodic stall still applies).
func (f *Flaky) Delete(user string) {
	_ = f.mutFault()
	f.inner.Delete(user)
}

// Users returns all user names in sorted order (never faulted: the
// enumeration surface is administrative, not request-path).
func (f *Flaky) Users() []string { return f.inner.Users() }

// Len returns the number of records.
func (f *Flaky) Len() int { return f.inner.Len() }

// All returns every record sorted by user.
func (f *Flaky) All() []*passpoints.Record { return f.inner.All() }

// SaveTo writes the wrapped store to the given path.
func (f *Flaky) SaveTo(path string) error {
	if err := f.mutFault(); err != nil {
		return err
	}
	return f.inner.SaveTo(path)
}

// flakyLockout extends Flaky over stores that persist lockout
// counters, injecting the same faults into counter writes: the auth
// service logs and tolerates those failures, which is exactly the
// path the torture test must prove keeps counters exact.
type flakyLockout struct {
	*Flaky
	locks LockoutStore
}

// SetLockout records user's failed-attempt count, unless a fault
// fires first.
func (f *flakyLockout) SetLockout(user string, failures int) error {
	if err := f.mutFault(); err != nil {
		return err
	}
	return f.locks.SetLockout(user, failures)
}

// Lockouts returns a copy of every persisted counter (never faulted:
// the auth service reads it once, at its first record read, and only
// the record reads and the mutations carry the injected faults).
func (f *flakyLockout) Lockouts() map[string]int { return f.locks.Lockouts() }
