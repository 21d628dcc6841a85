package session

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkValidate measures the validate path per algorithm, with
// the verify cache warm (steady state: one token seen repeatedly) and
// cold (every token distinct — forces the signature check).
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
			toks := make([]string, b.N)
			for i := range toks {
				t, err := m.Mint(fmt.Sprintf("user-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				toks[i] = t
			}
			// Distinct users defeat the memoization without overflowing
			// it into pathological eviction behavior mid-run.
			for i := range m.cache {
				m.cache[i].mu.Lock()
				m.cache[i].m = nil
				m.cache[i].mu.Unlock()
			}
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
