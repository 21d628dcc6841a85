package session

import (
	"testing"
	"time"
)

// FuzzValidateToken: no mutation of a valid token — bit flips,
// truncations, extensions, inserted line breaks, resigned or
// restructured frames — may ever validate, except the identity
// mutation. The fuzzer mutates the token string; the oracle is string
// equality with a known-good token, made sound by the Strict base64
// decoding and the refusal of the line breaks base64 skips (each
// accepted token has exactly one spelling).
func FuzzValidateToken(f *testing.F) {
	clk := newClock()
	m, err := New(Options{TTL: time.Hour, Now: clk.now})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	defer m.Close()
	hm, err := New(Options{Alg: AlgHMAC, TTL: time.Hour, Now: clk.now})
	if err != nil {
		f.Fatalf("New hmac: %v", err)
	}
	defer hm.Close()

	goodEd, err := m.Mint("alice")
	if err != nil {
		f.Fatalf("Mint: %v", err)
	}
	goodHM, err := hm.Mint("alice")
	if err != nil {
		f.Fatalf("Mint hmac: %v", err)
	}
	// A structurally perfect token signed by a different key set.
	other, err := New(Options{TTL: time.Hour, Now: clk.now})
	if err != nil {
		f.Fatalf("New other: %v", err)
	}
	defer other.Close()
	resigned, err := other.Mint("alice")
	if err != nil {
		f.Fatalf("Mint other: %v", err)
	}

	// Validate the genuine tokens once, so every fuzzed input meets a
	// warm cache that holds them.
	if _, err := m.Validate(goodEd); err != nil {
		f.Fatalf("Validate: %v", err)
	}
	if _, err := hm.Validate(goodHM); err != nil {
		f.Fatalf("Validate hmac: %v", err)
	}

	f.Add(goodEd)
	f.Add(goodHM)
	f.Add(resigned)
	f.Add(goodEd[:len(goodEd)/2])
	f.Add(goodEd + "A")
	f.Add("")
	f.Add("not-base64-!!!")
	f.Add(goodEd[:10] + "\n" + goodEd[10:])
	f.Add(goodHM + "\r\n")

	f.Fuzz(func(t *testing.T, token string) {
		if user, err := m.Validate(token); err == nil {
			if token != goodEd {
				t.Fatalf("mutated token validated on ed25519 manager as %q: %q", user, token)
			}
			if user != "alice" {
				t.Fatalf("valid token returned wrong user %q", user)
			}
		}
		if user, err := hm.Validate(token); err == nil {
			if token != goodHM {
				t.Fatalf("mutated token validated on hmac manager as %q: %q", user, token)
			}
			if user != "alice" {
				t.Fatalf("valid token returned wrong user %q", user)
			}
		}
	})
}
