package session

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkValidate measures the validate path per algorithm: warm
// (one token seen repeatedly: a cache hit), cold (every token distinct:
// the signature check and an insert into a cache with room) and full
// (every token distinct, into a full cache: gateway's steady state,
// where each insert evicts).
func BenchmarkValidate(b *testing.B) {
	for _, alg := range []Alg{AlgEd25519, AlgHMAC} {
		m, err := New(Options{Alg: alg, TTL: time.Hour})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		tok, err := m.Mint("alice")
		if err != nil {
			b.Fatalf("Mint: %v", err)
		}
		b.Run(fmt.Sprintf("warm/%s", alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Validate(tok); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cold/%s", alg), func(b *testing.B) {
			toks := mintDistinct(b, m, "cold", b.N)
			resetCache(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Empty the cache each time it is half full, so a miss
				// inserts into a cache with room instead of evicting.
				if i > 0 && i%(cacheShardCount*cacheShardCap/2) == 0 {
					b.StopTimer()
					resetCache(m)
					b.StartTimer()
				}
				if _, err := m.Validate(toks[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
		filled := false
		b.Run(fmt.Sprintf("full/%s", alg), func(b *testing.B) {
			if !filled {
				for _, t := range mintDistinct(b, m, "fill", 2*cacheShardCount*cacheShardCap) {
					if _, err := m.Validate(t); err != nil {
						b.Fatal(err)
					}
				}
				filled = true
			}
			toks := mintDistinct(b, m, fmt.Sprintf("full-%d", b.N), b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Validate(toks[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
		m.Close()
	}
}

// mintDistinct mints n tokens for distinct users named prefix-<i>.
func mintDistinct(b *testing.B, m *Manager, prefix string, n int) []string {
	toks := make([]string, n)
	for i := range toks {
		t, err := m.Mint(fmt.Sprintf("%s-%d", prefix, i))
		if err != nil {
			b.Fatal(err)
		}
		toks[i] = t
	}
	return toks
}

// resetCache empties m's verify cache in place, zeroing each shard's
// fill counts but keeping its table, so a benchmark does not time the
// tables' allocation.
func resetCache(m *Manager) {
	for i := range m.cache {
		sh := &m.cache[i]
		sh.mu.Lock()
		if sh.fill != nil {
			*sh.fill = [cacheSets]uint8{}
		}
		sh.n = 0
		sh.mu.Unlock()
	}
}

// BenchmarkMint measures token issuance per algorithm.
func BenchmarkMint(b *testing.B) {
	for _, alg := range []Alg{AlgEd25519, AlgHMAC} {
		m, err := New(Options{Alg: alg, TTL: time.Hour})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Mint("alice"); err != nil {
					b.Fatal(err)
				}
			}
		})
		m.Close()
	}
}
