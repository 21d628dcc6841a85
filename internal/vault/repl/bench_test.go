package repl

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// countingConn adds every byte its connection reads or writes to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	k, err := c.Conn.Read(b)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(b []byte) (int, error) {
	k, err := c.Conn.Write(b)
	c.n.Add(int64(k))
	return k, err
}

// BenchmarkBootstrap times a follower's bootstrap from a 32-shard
// SyncAlways quorum primary holding 10,000 servebench-shaped accounts
// (five clears, a 16-byte salt, a 32-byte digest): each iteration runs
// from New to zero lag with equal Len, into a fresh directory. It
// reports the bytes the follower's connection carried per bootstrap,
// both ways, as wire-B/op, and the largest HeapAlloc sampled every
// millisecond over the timed bootstraps, primary included, as
// peak-heap-B.
func BenchmarkBootstrap(b *testing.B) {
	dir := b.TempDir()
	pdir := filepath.Join(dir, "primary")
	pst, err := vault.OpenDurable(pdir, vault.DurableOptions{Shards: 32, Sync: vault.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		rec := &passpoints.Record{User: fmt.Sprintf("u%04d", i), Kind: passpoints.KindCentered, SquareSidePx: 13,
			ImageW: 451, ImageH: 331, Iterations: 1000, Salt: make([]byte, 16), Digest: make([]byte, 32)}
		for range passpoints.DefaultClicks {
			rec.Clears = append(rec.Clears, passpoints.ClearID{DX: int32(rng.IntN(13)), DY: int32(rng.IntN(13))})
		}
		for j := range rec.Salt {
			rec.Salt[j] = byte(rng.Uint32())
		}
		for j := range rec.Digest {
			rec.Digest[j] = byte(rng.Uint32())
		}
		if err := pst.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := pst.Close(); err != nil {
		b.Fatal(err)
	}
	opts := vault.DurableOptions{Shards: 32, Sync: vault.SyncAlways}
	if pst, err = vault.OpenDurable(pdir, opts); err != nil {
		b.Fatal(err)
	}
	defer pst.Close()
	quiet := func(string, ...any) {}
	p, err := New(pst, RolePrimary, Options{Listen: "127.0.0.1:0", Ack: AckQuorum, Logf: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	var wire atomic.Int64
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c, &wire}, nil
	}
	var (
		total   int64
		peak    atomic.Uint64
		running atomic.Bool
	)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if running.Load() {
					runtime.ReadMemStats(&ms)
					peak.Store(max(peak.Load(), ms.HeapAlloc))
				}
			}
		}
	}()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		fdir := filepath.Join(dir, "follower"+strconv.Itoa(i))
		fst, err := vault.OpenDurable(fdir, opts)
		if err != nil {
			b.Fatal(err)
		}
		wire.Store(0)
		running.Store(true)
		b.StartTimer()
		f, err := New(fst, RoleFollower, Options{Primary: p.ReplAddr(), Dial: dial, Logf: quiet})
		if err != nil {
			b.Fatal(err)
		}
		for {
			s := p.Stats()
			if len(s.Followers) == 1 && s.Followers[0].LagRecords == 0 && fst.Len() == pst.Len() {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		b.StopTimer()
		running.Store(false)
		total += wire.Load()
		f.Close()
		fst.Close()
		for len(p.Stats().Followers) != 0 {
			time.Sleep(time.Millisecond)
		}
		os.RemoveAll(fdir)
	}
	close(stop)
	<-sampled
	b.ReportMetric(float64(total)/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(peak.Load()), "peak-heap-B")
}
