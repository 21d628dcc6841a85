package vault

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"clickpass/internal/passpoints"
)

// benchRecords builds n immutable records cheaply (no real hashing —
// store benchmarks measure the store, not the crypto).
func benchRecords(n int) []*passpoints.Record {
	recs := make([]*passpoints.Record, n)
	for i := range recs {
		recs[i] = &passpoints.Record{
			User: fmt.Sprintf("u-%d", i), Kind: passpoints.KindCentered,
			SquareSidePx: 13, Iterations: 2,
			Salt: []byte{1, 2, 3, 4}, Digest: []byte{5, 6, 7, 8},
		}
	}
	return recs
}

// BenchmarkStoreReadHeavy times the store backends on the
// authentication front end's op mix — 1 Replace (write) per 10 reads,
// each the GetPacked a login makes — at a fixed goroutine count per
// sub-benchmark: no sockets, no hashing, just the store under
// contention.
func BenchmarkStoreReadHeavy(b *testing.B) {
	const users = 1024
	for _, backend := range []struct {
		name string
		mk   func(tb testing.TB) Store
	}{
		{"sharded32", func(testing.TB) Store { return NewSharded(32) }},
		// The durable backend at the cheap end of the fsync range: the
		// mix is 90% Gets (log-free), so this isolates the append cost
		// under contention; fsync pricing lives in pwbench -store.
		{"durable32-never", func(tb testing.TB) Store {
			return openDurableT(tb, DurableOptions{Shards: 32, Sync: SyncNever})
		}},
	} {
		for _, workers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", backend.name, workers), func(b *testing.B) {
				s := backend.mk(b)
				recs := benchRecords(users)
				for _, r := range recs {
					if err := s.Put(r); err != nil {
						b.Fatal(err)
					}
				}
				var next atomic.Int64
				perWorker := b.N/workers + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < perWorker; i++ {
							op := next.Add(1)
							rec := recs[int(op)%users]
							if op%10 == 9 {
								_ = s.Replace(rec)
							} else {
								if _, err := s.GetPacked(rec.User); err != nil {
									b.Error(err)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkShardSnapshot times the bootstrap payload a primary encodes
// for one shard: ShardSnapshot of 10,000 enrolled records in a
// one-shard store, per entry.
func BenchmarkShardSnapshot(b *testing.B) {
	const n = 10000
	d := openDurableT(b, DurableOptions{Shards: 1, Sync: SyncNever, NoAutoCompact: true})
	for _, rec := range enrolledRecords(b, n) {
		if err := d.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		if _, _, err := d.ShardSnapshot(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	entries := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
}
