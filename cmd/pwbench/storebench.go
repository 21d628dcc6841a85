package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// StoreRun is one (backend, op) measurement in BENCH_store.json.
type StoreRun struct {
	Backend string `json:"backend"`
	// Op is "readheavy" (10 GetPackeds, the read a login makes, per
	// Replace), "get" (the Get that materialises a record copy), "put"
	// (fresh-user writes), "put8" (8 concurrent writers, one log), or a
	// start-up row: "open-snapshot" (open from a JSON snapshot) or
	// "open-replay" (open by replaying the logs).
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// StoreBench is the BENCH_store.json document: the vault backends —
// including the durable store at every fsync policy — on the
// authentication front end's op mix, so the latency price of each
// durability level is recorded per commit next to the engine numbers.
type StoreBench struct {
	Name       string     `json:"name"`
	GoMaxProcs int        `json:"gomaxprocs"`
	NumCPU     int        `json:"numcpu"`
	Runs       []StoreRun `json:"runs"`
}

// storeBackend is one measured store: mk builds the default-sharded
// store the readheavy and put phases use; mkContended, when non-nil,
// builds the single-log variant the concurrent put8 phase uses (all
// writers on one shard — the contention group commit amortizes; a
// default-sharded store would spread 8 writers so thin the coalescing
// never engages). mk may return a cleanup func (durable stores must
// close their logs).
type storeBackend struct {
	name        string
	mk          func() (vault.Store, func(), error)
	mkContended func() (vault.Store, func(), error)
}

// storeBackends enumerates the measured stores.
func storeBackends(dir string) []storeBackend {
	durable := func(policy vault.SyncPolicy, shards int) func() (vault.Store, func(), error) {
		return func() (vault.Store, func(), error) {
			// A fresh directory per call: each measurement phase must
			// start from an empty store like the in-memory one does,
			// not replay the previous phase's log.
			wal, err := os.MkdirTemp(dir, "wal-"+policy.String()+"-*")
			if err != nil {
				return nil, nil, err
			}
			d, err := vault.OpenDurable(wal, vault.DurableOptions{
				Sync:   policy,
				Shards: shards,
				// Compaction churn mid-measurement adds rename/unlink
				// noise unrelated to the append path under test.
				NoAutoCompact: shards == 1,
			})
			if err != nil {
				return nil, nil, err
			}
			return d, func() { d.Close() }, nil
		}
	}
	return []storeBackend{
		{"sharded32", func() (vault.Store, func(), error) { return vault.NewSharded(32), func() {}, nil }, nil},
		{"durable-always", durable(vault.SyncAlways, 0), durable(vault.SyncAlways, 1)},
		{"durable-interval", durable(vault.SyncInterval, 0), durable(vault.SyncInterval, 1)},
		{"durable-never", durable(vault.SyncNever, 0), durable(vault.SyncNever, 1)},
	}
}

// storeRecords builds n records shaped like enrolled ones (five clear
// offsets, a 32-byte digest) without real hashing: the bench measures
// the store, not the crypto.
func storeRecords(n int) []*passpoints.Record {
	clears := []passpoints.ClearID{{DX: 12, DY: 40}, {DX: 71, DY: 3}, {DX: 36, DY: 36}, {DX: 5, DY: 66}, {DX: 58, DY: 21}}
	digest := make([]byte, 32)
	for i := range digest {
		digest[i] = byte(i * 37)
	}
	recs := make([]*passpoints.Record, n)
	for i := range recs {
		recs[i] = &passpoints.Record{
			User: fmt.Sprintf("u-%d", i), Kind: passpoints.KindCentered,
			SquareSidePx: 13, Iterations: 2, Clears: clears,
			Salt: []byte{1, 2, 3, 4}, Digest: digest,
		}
	}
	return recs
}

// runStoreBench measures every backend on the read-heavy mix and the
// pure-write path, writes BENCH_store.json into outDir, and prints a
// Markdown table.
func runStoreBench(outDir string) error {
	tmp, err := os.MkdirTemp("", "pwbench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	const users = 1024
	bench := StoreBench{Name: "store", GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for _, backend := range storeBackends(tmp) {
		// readheavy: the auth mix — 10 GetPackeds, the read a login
		// makes, per Replace over a pre-populated store.
		s, cleanup, err := backend.mk()
		if err != nil {
			return err
		}
		recs := storeRecords(users)
		for _, r := range recs {
			if err := s.Put(r); err != nil {
				cleanup()
				return err
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := recs[i%users]
				if i%10 == 9 {
					_ = s.Replace(rec)
				} else {
					if _, err := s.GetPacked(rec.User); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		bench.Runs = append(bench.Runs, StoreRun{
			Backend: backend.name, Op: "readheavy",
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		})

		// get: the Get tools and tests make, which materialises a copy
		// of the packed record.
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(recs[i%users].User); err != nil {
					b.Fatal(err)
				}
			}
		})
		cleanup()
		bench.Runs = append(bench.Runs, StoreRun{
			Backend: backend.name, Op: "get",
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		})

		// put: fresh-user enrollment writes — the path an fsync policy
		// prices most directly.
		s, cleanup, err = backend.mk()
		if err != nil {
			return err
		}
		// seq is monotonic across benchmark rounds: testing.Benchmark
		// reruns the closure with growing b.N against the same store,
		// so user names must never repeat. Each Put gets its own
		// Record, as the real enroll path allocates one per user.
		seq := 0
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seq++
				rec := &passpoints.Record{User: fmt.Sprintf("w-%d", seq),
					Kind: passpoints.KindCentered, SquareSidePx: 13,
					Iterations: 2, Salt: []byte{1, 2, 3, 4}, Digest: []byte{5, 6, 7, 8}}
				if err := s.Put(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
		cleanup()
		bench.Runs = append(bench.Runs, StoreRun{
			Backend: backend.name, Op: "put",
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		})

		// put8: 8 goroutines writing fresh users into one contended log
		// (single shard for the durable stores). Under `-fsync always`
		// this is the group-commit case: concurrent appends coalesce
		// into one fsync, so ns/op here should beat the sequential put
		// row rather than match it. ns/op is wall time per op across
		// all writers.
		mk8 := backend.mkContended
		if mk8 == nil {
			mk8 = backend.mk
		}
		s, cleanup, err = mk8()
		if err != nil {
			return err
		}
		const putWriters = 8
		round := 0
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			round++ // user names must stay unique across b.N reruns
			var wg sync.WaitGroup
			var fail atomic.Value
			for g := 0; g < putWriters; g++ {
				share := b.N / putWriters
				if g < b.N%putWriters {
					share++
				}
				wg.Add(1)
				go func(g, share int) {
					defer wg.Done()
					for i := 0; i < share; i++ {
						rec := &passpoints.Record{User: fmt.Sprintf("c%d-%d-%d", g, round, i),
							Kind: passpoints.KindCentered, SquareSidePx: 13,
							Iterations: 2, Salt: []byte{1, 2, 3, 4}, Digest: []byte{5, 6, 7, 8}}
						if err := s.Put(rec); err != nil {
							fail.Store(err)
							return
						}
					}
				}(g, share)
			}
			wg.Wait()
			if err, ok := fail.Load().(error); ok {
				b.Fatal(err)
			}
		})
		cleanup()
		bench.Runs = append(bench.Runs, StoreRun{
			Backend: backend.name, Op: "put8",
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "pwbench: measured store backend %s\n", backend.name)
	}
	opens, err := measureOpens(tmp)
	if err != nil {
		return err
	}
	bench.Runs = append(bench.Runs, opens...)
	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(outDir, "BENCH_store.json")
	if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pwbench: wrote %s\n", file)
	fmt.Print(storeMarkdownTable(bench))
	return nil
}

// openRecords is the population the start-up rows load: servebench's
// 10k accounts.
const openRecords = 10000

// measureOpens times the two start-up load paths on openRecords
// records: open-snapshot opens a Sharded store from the MarshalIndent
// snapshot SaveTo writes, and open-replay opens a Durable store by
// replaying the same records from its shard logs. Both spend most of
// their time decoding records, so these rows gate the decode path.
func measureOpens(dir string) ([]StoreRun, error) {
	src := vault.NewSharded(0)
	for _, rec := range storeRecords(openRecords) {
		if err := src.Put(rec); err != nil {
			return nil, err
		}
	}
	snapshot := filepath.Join(dir, "open.json")
	if err := src.SaveTo(snapshot); err != nil {
		return nil, err
	}
	logs := filepath.Join(dir, "open-wal")
	opts := vault.DurableOptions{Sync: vault.SyncNever, NoAutoCompact: true}
	d, err := vault.OpenDurable(logs, opts)
	if err != nil {
		return nil, err
	}
	if err := d.ImportJSON(snapshot); err != nil {
		d.Close()
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	var openErr error
	run := func(backend, op string, open func() error) StoreRun {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := open(); err != nil {
					openErr = err
					b.FailNow()
				}
			}
		})
		return StoreRun{Backend: backend, Op: op,
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(max(r.N, 1)),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()}
	}
	runs := []StoreRun{
		run("sharded32", "open-snapshot", func() error {
			s, err := vault.OpenSharded(snapshot, 32)
			if err == nil && s.Len() != openRecords {
				err = fmt.Errorf("opened %d records from the snapshot, want %d", s.Len(), openRecords)
			}
			return err
		}),
		run("durable-never", "open-replay", func() error {
			d, err := vault.OpenDurable(logs, opts)
			if err != nil {
				return err
			}
			if d.Len() != openRecords {
				err = fmt.Errorf("replayed %d records, want %d", d.Len(), openRecords)
			}
			if cerr := d.Close(); err == nil {
				err = cerr
			}
			return err
		}),
	}
	if openErr != nil {
		return nil, openErr
	}
	fmt.Fprintf(os.Stderr, "pwbench: measured store start-up\n")
	return runs, nil
}

// storeMarkdownTable renders the backend comparison CI publishes.
func storeMarkdownTable(bench StoreBench) string {
	var b strings.Builder
	b.WriteString("| backend | readheavy ns/op | get ns/op | put ns/op | put8 ns/op |\n|---|---|---|---|---|\n")
	byKey := map[string]StoreRun{}
	var order []string
	for _, r := range bench.Runs {
		byKey[r.Backend+"/"+r.Op] = r
		if r.Op == "readheavy" {
			order = append(order, r.Backend)
		}
	}
	for _, name := range order {
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %.0f | %.0f |\n",
			name, byKey[name+"/readheavy"].NsPerOp, byKey[name+"/get"].NsPerOp,
			byKey[name+"/put"].NsPerOp, byKey[name+"/put8"].NsPerOp)
	}
	b.WriteString("\n| start-up | ms/op | allocs/op |\n|---|---|---|\n")
	for _, r := range bench.Runs {
		if strings.HasPrefix(r.Op, "open-") {
			fmt.Fprintf(&b, "| %s %s | %.1f | %d |\n", r.Backend, r.Op, r.NsPerOp/1e6, r.AllocsPerOp)
		}
	}
	return b.String()
}
