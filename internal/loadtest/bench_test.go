package loadtest

import (
	"fmt"
	"testing"

	"clickpass/internal/authsvc"
	"clickpass/internal/vault"
)

// BenchmarkAuthSwarm measures end-to-end auth throughput at the
// standing load points — 1/8/64/256 concurrent clients — against the
// in-memory store and the durable store at every fsync policy, on
// a read-heavy mix (1 password change per 10 logins; the writes are
// what the fsync policy prices). ns/op is per completed request; the
// ops/s metric is the swarm throughput recorded in PERFORMANCE.md's
// "Server load" and "Durable vault" tables.
//
//	go test ./internal/loadtest -run NONE -bench AuthSwarm -benchtime 2000x
func BenchmarkAuthSwarm(b *testing.B) {
	for _, backend := range []struct {
		name string
		mk   func(tb testing.TB) vault.Store
	}{
		{"sharded32", func(testing.TB) vault.Store { return vault.NewSharded(32) }},
		{"durable-always", mkDurable(vault.SyncAlways)},
		{"durable-interval", mkDurable(vault.SyncInterval)},
		{"durable-never", mkDurable(vault.SyncNever)},
	} {
		for _, clients := range []int{1, 8, 64, 256} {
			b.Run(fmt.Sprintf("%s/clients=%d", backend.name, clients), func(b *testing.B) {
				_, addr, shutdown := startServer(b, backend.mk(b), 256)
				defer shutdown()
				benchSwarm(b, TCPTransport(addr, 0), addr, clients)
			})
		}
	}
}

// BenchmarkAuthSwarmWrites is the group-commit stress: every op is a
// password change (a durable append + fsync under `-fsync always`)
// and the store runs a single shard, so all N concurrent clients
// contend on one log — the worst case for per-append fsyncs and the
// case group commit exists to fix (with the default 32 shards, 8
// writers rarely share a log and there is nothing to coalesce). The
// PR 7 numbers in PERFORMANCE.md's "Group commit" table come from
// here.
//
//	go test ./internal/loadtest -run NONE -bench AuthSwarmWrites -benchtime 1000x
func BenchmarkAuthSwarmWrites(b *testing.B) {
	mk := func(tb testing.TB) vault.Store {
		// NoAutoCompact: the bench times the commit path; background
		// compaction mid-run adds rename/unlink churn whose cost (and,
		// on discard-mounted filesystems, device flush behaviour) is
		// unrelated to what this benchmark compares across PRs.
		d, err := vault.OpenDurable(tb.TempDir(), vault.DurableOptions{
			Sync: vault.SyncAlways, Shards: 1, NoAutoCompact: true})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { d.Close() })
		return d
	}
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("durable-always/clients=%d", clients), func(b *testing.B) {
			_, addr, shutdown := startServer(b, mk(b), 256)
			defer shutdown()
			users := enrollUsers(b, addr, clients)
			ops := b.N/clients + 1
			b.ResetTimer()
			res, err := Run(Config{
				Dial:         TCPTransport(addr, 0),
				Clients:      clients,
				OpsPerClient: ops,
				Request:      AuthMix(users, userClicks, 1),
				Check:        RequireOK,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Errors != 0 {
				b.Fatalf("swarm errors: %d (%s)", res.Errors, res)
			}
			b.ReportMetric(res.Throughput(), "ops/s")
			b.ReportMetric(float64(res.P99.Microseconds()), "p99-µs")
		})
	}
}

// mkDurable builds a durable-store factory at the given fsync policy,
// rooted in a per-benchmark temp dir.
func mkDurable(policy vault.SyncPolicy) func(tb testing.TB) vault.Store {
	return func(tb testing.TB) vault.Store {
		d, err := vault.OpenDurable(tb.TempDir(), vault.DurableOptions{Sync: policy})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { d.Close() })
		return d
	}
}

// BenchmarkAuthSwarmHTTP is the same swarm over the HTTP/JSON codec —
// the apples-to-apples transport comparison in PERFORMANCE.md's
// "Unified serving layer" section (both fronts run the identical
// pipeline; the delta is pure codec overhead).
//
//	go test ./internal/loadtest -run NONE -bench AuthSwarmHTTP -benchtime 2000x
func BenchmarkAuthSwarmHTTP(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sharded32/clients=%d", clients), func(b *testing.B) {
			srv, addr, shutdown := startServer(b, vault.NewSharded(32), 256)
			defer shutdown()
			baseURL, closeHTTP := startHTTP(b, srv)
			defer closeHTTP()
			benchSwarm(b, HTTPTransport(baseURL), addr, clients)
		})
	}
}

// benchSwarm enrolls identities over TCP (enrollment is setup, not
// measurement) and times one swarm run over the given transport.
func benchSwarm(b *testing.B, dial func(int) (authsvc.Client, error), tcpAddr string, clients int) {
	b.Helper()
	users := enrollUsers(b, tcpAddr, clients)
	ops := b.N/clients + 1
	b.ResetTimer()
	res, err := Run(Config{
		Dial:         dial,
		Clients:      clients,
		OpsPerClient: ops,
		Request:      AuthMix(users, userClicks, 10),
		Check:        RequireOK,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors != 0 {
		b.Fatalf("swarm errors: %d (%s)", res.Errors, res)
	}
	b.ReportMetric(res.Throughput(), "ops/s")
	b.ReportMetric(float64(res.P99.Microseconds()), "p99-µs")
}
