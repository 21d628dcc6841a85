package repl

// The partition/failover torture suite. The failure model mirrors the
// walstore group-commit torture (TestGroupCommitTorture): each writer
// appends strictly increasing versions of its own record and tracks
// the highest version whose write was ACKED. After losing the primary
// wholesale and promoting the follower, the survivor must hold, per
// writer, a version in [highest acked, highest attempted] whose bytes
// are exactly the version's expected bytes:
//
//   - below the acked floor  → an acked write was lost (false reject)
//   - above the attempt ceil → fabricated state   (false accept)
//   - wrong bytes            → blended/corrupt state
//
// In quorum mode the acked floor is the hard guarantee: an ack is
// only issued after the follower's fsync covers the write, so no
// crash or partition of the primary can lose it. The replication link
// itself runs through a seeded fault injector (torn writes mid-frame,
// dropped connections, delays), so the stream's resume/re-bootstrap
// paths are exercised continuously while the floors are being built.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// sm64 is a seeded splitmix64 — the same deterministic generator the
// vault's Flaky wrapper uses, so torture runs are reproducible from
// the seed.
type sm64 struct {
	mu sync.Mutex
	s  uint64
}

func (g *sm64) next() uint64 {
	g.mu.Lock()
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	g.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// flakyConn injects seeded faults into a replication link: torn
// writes (a random prefix reaches the peer, then the conn dies —
// exactly a torn frame), outright drops, and delays. Faults poison
// the connection, forcing the follower through its redial/resume (or
// re-bootstrap) path.
type flakyConn struct {
	net.Conn
	g *sm64
	// per-10000 probabilities
	tear, drop, delay uint64
}

func (f *flakyConn) Write(b []byte) (int, error) {
	r := f.g.next()
	switch {
	case r%10000 < f.tear && len(b) > 1:
		k := int((r >> 16) % uint64(len(b)))
		n, _ := f.Conn.Write(b[:k])
		f.Conn.Close()
		return n, errors.New("flaky: torn write")
	case r%10000 < f.tear+f.drop:
		f.Conn.Close()
		return 0, errors.New("flaky: dropped connection (write)")
	case r%10000 < f.tear+f.drop+f.delay:
		time.Sleep(time.Duration(1+r%4) * time.Millisecond)
	}
	return f.Conn.Write(b)
}

func (f *flakyConn) Read(b []byte) (int, error) {
	r := f.g.next()
	switch {
	case r%10000 < f.drop:
		f.Conn.Close()
		return 0, errors.New("flaky: dropped connection (read)")
	case r%10000 < f.drop+f.delay:
		time.Sleep(time.Duration(1+r%4) * time.Millisecond)
	}
	return f.Conn.Read(b)
}

// flakyDialer wraps real loopback dials in flakyConns sharing one
// seeded generator.
func flakyDialer(g *sm64, tear, drop, delay uint64) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &flakyConn{Conn: c, g: g, tear: tear, drop: drop, delay: delay}, nil
	}
}

// versionedTortureRecord encodes (user, version) into the digest so a
// recovered record's version — and its byte-exactness — can be read
// back out.
func versionedTortureRecord(user string, version int) *passpoints.Record {
	return &passpoints.Record{User: user, Kind: "passpoints", SquareSidePx: 19, ImageW: 451, ImageH: 331,
		Salt: []byte("salt"), Iterations: int32(version),
		Digest: []byte(fmt.Sprintf("%s#%06d", user, version))}
}

// tortureVersion extracts the version a recovered record carries, -1
// for malformed bytes.
func tortureVersion(user string, rec *passpoints.Record) int {
	var v int
	want := fmt.Sprintf("%s#", user)
	s := string(rec.Digest)
	if len(s) != len(want)+6 || s[:len(want)] != want {
		return -1
	}
	if _, err := fmt.Sscanf(s[len(want):], "%06d", &v); err != nil {
		return -1
	}
	if int(rec.Iterations) != v {
		return -1 // blended record: digest and iterations disagree
	}
	return v
}

// TestReplFailoverTorture is the headline robustness proof: concurrent
// writers build per-writer acked floors through a faulty replication
// link in quorum mode, the primary is killed mid-stream, the follower
// is promoted, and the survivor's state is checked against the floors.
func TestReplFailoverTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	g := &sm64{s: 0xc11c4fa5}
	pst, fst := openTestStore(t), openTestStore(t)
	p := newTestPrimary(t, pst, Options{
		Ack:           AckQuorum,
		QuorumTimeout: 2 * time.Second,
		Heartbeat:     20 * time.Millisecond,
		Advertise:     "old-primary:1",
	})
	f := newTestFollower(t, fst, p.ReplAddr(), Options{
		Advertise: "new-primary:1",
		Redial:    10 * time.Millisecond,
		// ~1.2% torn writes, 0.6% drops, 2% delays per socket op.
		Dial: flakyDialer(g, 120, 60, 200),
	})

	const (
		writers  = 4
		versions = 50
	)
	acked := make([]atomic.Int64, writers)
	attempted := make([]atomic.Int64, writers)
	var ackedTotal atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("writer%d", w)
			for v := 1; v <= versions; v++ {
				attempted[w].Store(int64(v))
				if err := p.Replace(versionedTortureRecord(user, v)); err == nil {
					acked[w].Store(int64(v))
					ackedTotal.Add(1)
				}
			}
		}(w)
	}

	// Kill the primary once the floors have substance: abrupt teardown
	// of listener, stream connections, and in-flight quorum waiters —
	// writes racing the kill get errors, exactly like callers of a
	// SIGKILLed process (the cmd/pwserver smoke does the real-process
	// version of this same drill).
	killAt := int64(writers * versions / 3)
	for ackedTotal.Load() < killAt {
		time.Sleep(time.Millisecond)
	}
	p.Close()
	wg.Wait()

	epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if fst.Epoch() != epoch || epoch == 0 {
		t.Fatalf("promotion epoch %d not persisted (store has %d)", epoch, fst.Epoch())
	}

	// The acked-floor check against the survivor.
	for w := 0; w < writers; w++ {
		user := fmt.Sprintf("writer%d", w)
		floor, ceil := int(acked[w].Load()), int(attempted[w].Load())
		rec, gerr := fst.Get(user)
		got := 0
		if gerr == nil {
			got = tortureVersion(user, rec)
		} else if !errors.Is(gerr, vault.ErrNotFound) {
			t.Fatalf("survivor Get(%s): %v", user, gerr)
		}
		if got < 0 {
			t.Errorf("%s: survivor holds malformed/blended record %q", user, rec.Digest)
			continue
		}
		if got < floor {
			t.Errorf("%s: acked-write loss — survivor at version %d, acked floor %d (false reject)", user, got, floor)
		}
		if got > ceil {
			t.Errorf("%s: survivor at version %d beyond last attempt %d (false accept)", user, got, ceil)
		}
	}

	// Life goes on: the promoted primary serves writes (quorum-covered
	// by a fresh, clean-linked follower) and streams them out.
	nst := openTestStore(t)
	newTestFollower(t, nst, f.ReplAddr(), Options{Redial: 10 * time.Millisecond})
	if err := f.Put(testRecord("after-failover")); err != nil {
		t.Fatalf("promoted primary Put: %v", err)
	}
	waitFor(t, 10*time.Second, "post-failover convergence", func() bool {
		_, err := nst.Get("after-failover")
		return err == nil
	})
}

// TestReplTortureLinkOnly hammers the faulty link without a failover:
// every quorum-acked write must be on the follower by the time the
// writers finish, despite continuous tears, drops, and redials.
func TestReplTortureLinkOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	g := &sm64{s: 0x5eed}
	pst, fst := openTestStore(t), openTestStore(t)
	p := newTestPrimary(t, pst, Options{
		Ack:           AckQuorum,
		QuorumTimeout: 2 * time.Second,
		Heartbeat:     20 * time.Millisecond,
		RetainBytes:   2048, // small: force re-bootstraps through the faults
	})
	newTestFollower(t, fst, p.ReplAddr(), Options{
		Redial: 10 * time.Millisecond,
		Dial:   flakyDialer(g, 150, 80, 250),
	})
	const writers, versions = 3, 40
	acked := make([]atomic.Int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("hammer%d", w)
			for v := 1; v <= versions; v++ {
				if err := p.Replace(versionedTortureRecord(user, v)); err == nil {
					acked[w].Store(int64(v))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		user := fmt.Sprintf("hammer%d", w)
		floor := int(acked[w].Load())
		if floor == 0 {
			continue // the link was too hostile for any ack; nothing to check
		}
		rec, err := fst.Get(user)
		if err != nil {
			t.Fatalf("follower lost every version of %s (acked floor %d): %v", user, floor, err)
		}
		if got := tortureVersion(user, rec); got < floor {
			t.Errorf("%s: follower at version %d, acked floor %d", user, got, floor)
		}
	}
}
