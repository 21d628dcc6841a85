package session

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// memKV is an in-memory KV for tests, optionally refusing writes to
// model a replication follower.
type memKV struct {
	mu       sync.Mutex
	m        map[string][]byte
	sets     int
	gets     int
	ranges   int
	readOnly bool
}

func newMemKV() *memKV { return &memKV{m: make(map[string][]byte)} }

func (s *memKV) SetKV(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sets++
	if s.readOnly {
		return errors.New("not primary")
	}
	if len(val) == 0 {
		delete(s.m, key)
		return nil
	}
	s.m[key] = append([]byte(nil), val...)
	return nil
}

func (s *memKV) GetKV(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *memKV) KVRange(prefix string) map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ranges++
	out := make(map[string][]byte)
	for k, v := range s.m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out[k] = append([]byte(nil), v...)
		}
	}
	return out
}

func (s *memKV) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sets + s.gets + s.ranges
}

// fakeClock is a settable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestMintValidateRoundTrip(t *testing.T) {
	for _, alg := range []Alg{AlgEd25519, AlgHMAC} {
		t.Run(alg.String(), func(t *testing.T) {
			clk := newClock()
			m := newTestManager(t, Options{Alg: alg, TTL: time.Hour, Now: clk.now})
			tok, err := m.Mint("alice")
			if err != nil {
				t.Fatalf("Mint: %v", err)
			}
			for i := 0; i < 2; i++ { // second pass exercises the verify cache
				user, err := m.Validate(tok)
				if err != nil || user != "alice" {
					t.Fatalf("Validate pass %d = %q, %v", i, user, err)
				}
			}
			clk.advance(time.Hour + time.Nanosecond)
			if _, err := m.Validate(tok); !errors.Is(err, ErrExpired) {
				t.Fatalf("after TTL: err = %v, want ErrExpired", err)
			}
		})
	}
}

func TestRevocationWatermark(t *testing.T) {
	clk := newClock()
	st := newMemKV()
	m := newTestManager(t, Options{TTL: time.Hour, Now: clk.now, Store: st})
	tok, err := m.Mint("bob")
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	if _, err := m.Validate(tok); err != nil {
		t.Fatalf("pre-revoke Validate: %v", err)
	}
	if err := m.Revoke("bob"); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if _, err := m.Validate(tok); !errors.Is(err, ErrRevoked) {
		t.Fatalf("post-revoke: err = %v, want ErrRevoked", err)
	}
	// A token minted strictly after the watermark is good again.
	clk.advance(time.Nanosecond)
	tok2, err := m.Mint("bob")
	if err != nil {
		t.Fatalf("re-Mint: %v", err)
	}
	if user, err := m.Validate(tok2); err != nil || user != "bob" {
		t.Fatalf("post-revoke fresh token: %q, %v", user, err)
	}
	// Other users are untouched.
	tokC, _ := m.Mint("carol")
	if _, err := m.Validate(tokC); err != nil {
		t.Fatalf("unrelated user hit by revocation: %v", err)
	}
	// The watermark persisted.
	if _, ok := st.GetKV("session/rev/bob"); !ok {
		t.Fatalf("revocation watermark not persisted")
	}
}

// TestRotationOverlapWindow is the rotation property test: a token
// minted under generation N validates through one rotation (overlap)
// and is refused after the second, and the property holds across a
// simulated hard restart (a brand-new Manager reseeded from the same
// store — which is exactly what SIGKILL + reopen produces, since
// every key write is durable before use).
func TestRotationOverlapWindow(t *testing.T) {
	clk := newClock()
	st := newMemKV()
	m := newTestManager(t, Options{TTL: 24 * time.Hour, Now: clk.now, Store: st})

	tok, err := m.Mint("alice")
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	if cur, _ := m.Generations(); cur != 1 {
		t.Fatalf("fresh manager at generation %d, want 1", cur)
	}
	if err := m.Rotate(); err != nil { // now at gen 2; token gen 1 in overlap
		t.Fatalf("Rotate: %v", err)
	}
	if user, err := m.Validate(tok); err != nil || user != "alice" {
		t.Fatalf("after 1 rotation (overlap): %q, %v", user, err)
	}

	// Restart: a fresh Manager over the same durable state must reach
	// the same verdicts — including for a token it never minted.
	m2 := newTestManager(t, Options{TTL: 24 * time.Hour, Now: clk.now, Store: st})
	if cur, active := m2.Generations(); cur != 2 || active != 2 {
		t.Fatalf("restarted manager sees gen %d with %d keys, want 2 with 2", cur, active)
	}
	if user, err := m2.Validate(tok); err != nil || user != "alice" {
		t.Fatalf("restarted manager, overlap token: %q, %v", user, err)
	}

	if err := m2.Rotate(); err != nil { // gen 3; token gen 1 is out
		t.Fatalf("Rotate: %v", err)
	}
	if _, err := m2.Validate(tok); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("after 2 rotations: err = %v, want ErrStaleGeneration", err)
	}
	// The original manager lags at gen 2 but rotation also pruned the
	// store; a second restart only sees gens 2 and 3.
	m3 := newTestManager(t, Options{TTL: 24 * time.Hour, Now: clk.now, Store: st})
	if _, err := m3.Validate(tok); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("restart after 2 rotations: err = %v, want ErrStaleGeneration", err)
	}
	if len(st.KVRange("session/key/")) != 2 {
		t.Fatalf("store holds %d key generations, want 2 (current + overlap)", len(st.KVRange("session/key/")))
	}
}

// TestValidateZeroStoreCalls is the acceptance check that the
// validate path performs no store round-trips: after warmup, a
// counting store sees zero additional calls across many validations
// of hits, misses, revoked, and expired tokens.
func TestValidateZeroStoreCalls(t *testing.T) {
	clk := newClock()
	st := newMemKV()
	m := newTestManager(t, Options{TTL: time.Hour, Now: clk.now, Store: st})
	good, err := m.Mint("alice")
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	revoked, _ := m.Mint("mallory")
	if err := m.Revoke("mallory"); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	expired, _ := m.Mint("late")

	before := st.calls()
	for i := 0; i < 1000; i++ {
		if _, err := m.Validate(good); err != nil {
			t.Fatalf("Validate(good): %v", err)
		}
		if _, err := m.Validate(revoked); !errors.Is(err, ErrRevoked) {
			t.Fatalf("Validate(revoked): %v", err)
		}
		if _, err := m.Validate("garbage-" + good); !errors.Is(err, ErrBadToken) {
			t.Fatalf("Validate(garbage): %v", err)
		}
	}
	clk.advance(2 * time.Hour)
	if _, err := m.Validate(expired); !errors.Is(err, ErrExpired) {
		t.Fatalf("Validate(expired): %v", err)
	}
	if got := st.calls(); got != before {
		t.Fatalf("validate path made %d store calls, want 0", got-before)
	}
}

// TestFollowerAdoptsKeys models the follower side: the store refuses
// writes, so the manager defers key creation and adopts whatever
// ApplyKV (the replication watch) delivers — then revokes locally
// even though its persistence attempt fails.
func TestFollowerAdoptsKeys(t *testing.T) {
	clk := newClock()

	// Primary mints as usual.
	pst := newMemKV()
	p := newTestManager(t, Options{TTL: time.Hour, Now: clk.now, Store: pst})
	tok, err := p.Mint("alice")
	if err != nil {
		t.Fatalf("primary Mint: %v", err)
	}

	// Follower boots with a read-only empty store: no key invented.
	fst := newMemKV()
	fst.readOnly = true
	f := newTestManager(t, Options{TTL: time.Hour, Now: clk.now, Store: fst})
	if cur, _ := f.Generations(); cur != 0 {
		t.Fatalf("follower invented key generation %d", cur)
	}
	if _, err := f.Mint("x"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("keyless Mint err = %v, want ErrNoKey", err)
	}
	if _, err := f.Validate(tok); err == nil {
		t.Fatalf("follower validated a token with no keys")
	}

	// Replication delivers the primary's key writes.
	for k, v := range pst.KVRange("session/") {
		f.ApplyKV(k, v)
	}
	if user, err := f.Validate(tok); err != nil || user != "alice" {
		t.Fatalf("follower Validate after adoption: %q, %v", user, err)
	}
	// An adopted key also mints (promotion needs this).
	if _, err := f.Mint("bob"); err != nil {
		t.Fatalf("follower Mint after adoption: %v", err)
	}

	// Rotation on the follower is refused by the store and changes
	// nothing locally.
	if err := f.Rotate(); err == nil {
		t.Fatalf("follower Rotate succeeded against a read-only store")
	}
	if cur, _ := f.Generations(); cur != 1 {
		t.Fatalf("failed rotation moved follower to generation %d", cur)
	}

	// Local revocation sticks even though persistence fails.
	if err := f.Revoke("alice"); err == nil {
		t.Fatalf("follower Revoke reported success against a read-only store")
	}
	if _, err := f.Validate(tok); !errors.Is(err, ErrRevoked) {
		t.Fatalf("follower after local revoke: %v, want ErrRevoked", err)
	}
}

// TestApplyKVRevocationAndDeletes covers replicated revocation
// watermarks (max-wins) and key deletions.
func TestApplyKVRevocationAndDeletes(t *testing.T) {
	clk := newClock()
	m := newTestManager(t, Options{TTL: time.Hour, Now: clk.now})
	tok, err := m.Mint("alice")
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	wm := clk.now().UnixNano()
	m.ApplyKV("session/rev/alice", []byte(fmt.Sprintf("%d", wm)))
	if _, err := m.Validate(tok); !errors.Is(err, ErrRevoked) {
		t.Fatalf("after replicated revocation: %v, want ErrRevoked", err)
	}
	// An older watermark must not regress the newer one.
	m.ApplyKV("session/rev/alice", []byte(fmt.Sprintf("%d", wm-10)))
	if _, err := m.Validate(tok); !errors.Is(err, ErrRevoked) {
		t.Fatalf("older watermark regressed the newer one: %v", err)
	}
	// Deleting the watermark clears it.
	m.ApplyKV("session/rev/alice", nil)
	if _, err := m.Validate(tok); err != nil {
		t.Fatalf("after watermark delete: %v", err)
	}
	// Deleting the key generation drops it from the key set.
	m.ApplyKV("session/key/1", nil)
	if _, active := m.Generations(); active != 0 {
		t.Fatalf("deleted key still installed (%d active)", active)
	}
	// Malformed entries are ignored, not fatal.
	m.ApplyKV("session/key/notanumber", []byte("{}"))
	m.ApplyKV("session/key/5", []byte("not json"))
	m.ApplyKV("session/rev/", []byte("123"))
	m.ApplyKV("session/rev/x", []byte("not a number"))
	m.ApplyKV("unrelated/key", []byte("ignored"))
}

// TestTamperedTokensRejected validates the genuine token first, so
// every forgery below meets a warm cache that holds the original.
func TestTamperedTokensRejected(t *testing.T) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
	for _, alg := range []Alg{AlgEd25519, AlgHMAC} {
		t.Run(alg.String(), func(t *testing.T) {
			clk := newClock()
			m := newTestManager(t, Options{Alg: alg, TTL: time.Hour, Now: clk.now})
			tok, err := m.Mint("alice")
			if err != nil {
				t.Fatalf("Mint: %v", err)
			}
			if user, err := m.Validate(tok); err != nil || user != "alice" {
				t.Fatalf("genuine token: %q, %v", user, err)
			}
			// Every single-character substitution. One that moves the
			// generation out of the window (past the current 1) meets
			// the window check, which comes before the signature check.
			for i := range len(tok) {
				for _, ch := range alphabet {
					if byte(ch) == tok[i] {
						continue
					}
					mut := tok[:i] + string(ch) + tok[i+1:]
					want := ErrBadToken
					if c, _, _, err := decodeToken(mut); err == nil && c.gen > 1 {
						want = ErrStaleGeneration
					}
					if _, err := m.Validate(mut); !errors.Is(err, want) {
						t.Fatalf("substitution %q at %d: err = %v, want %v", ch, i, err, want)
					}
				}
			}
			// The cached token's signature over a changed payload: the
			// first user byte, then the expiry's low byte (raw[10]).
			raw, err := tokenEncoding.DecodeString(tok)
			if err != nil {
				t.Fatalf("decoding the genuine token: %v", err)
			}
			for _, off := range []int{tokenHdrLen, 10} {
				mut := bytes.Clone(raw)
				mut[off] ^= 1
				if _, err := m.Validate(tokenEncoding.EncodeToString(mut)); !errors.Is(err, ErrBadToken) {
					t.Fatalf("payload byte %d changed under the cached signature: err = %v, want ErrBadToken", off, err)
				}
			}
			// A token signed by a different manager (attacker's own
			// key, same format) must fail: "resigned" case.
			other := newTestManager(t, Options{Alg: alg, TTL: time.Hour, Now: clk.now})
			forged, err := other.Mint("alice")
			if err != nil {
				t.Fatalf("other Mint: %v", err)
			}
			if _, err := m.Validate(forged); !errors.Is(err, ErrBadToken) {
				t.Fatalf("foreign-key token: err = %v, want ErrBadToken", err)
			}
			// Truncations.
			for _, n := range []int{1, 2, len(tok) / 2, len(tok) - 1} {
				if _, err := m.Validate(tok[:n]); err == nil {
					t.Fatalf("truncated token (len %d) validated", n)
				}
			}
			if _, err := m.Validate(""); err == nil {
				t.Fatalf("empty token validated")
			}
		})
	}
}

// TestCacheHitNeedsInstalledKey: a cached verification stands only
// while the key that made it is installed. After its generation is
// deleted or given a different secret, the token must get the verdict
// a cold cache gives; the same record delivered again (Reseed at
// promotion, a snapshot install) must keep it valid.
func TestCacheHitNeedsInstalledKey(t *testing.T) {
	for _, alg := range []Alg{AlgEd25519, AlgHMAC} {
		for _, tc := range []struct {
			name string
			val  func(t *testing.T, st *memKV) []byte // the new value of session/key/1
			want error
		}{
			{"delete", func(*testing.T, *memKV) []byte { return nil }, ErrBadToken},
			{"replace", func(t *testing.T, _ *memKV) []byte {
				other := newMemKV()
				newTestManager(t, Options{Alg: alg, Store: other})
				v, _ := other.GetKV("session/key/1")
				return v
			}, ErrBadToken},
			{"redeliver", func(_ *testing.T, st *memKV) []byte {
				v, _ := st.GetKV("session/key/1")
				return v
			}, nil},
		} {
			t.Run(alg.String()+"/"+tc.name, func(t *testing.T) {
				clk := newClock()
				st := newMemKV()
				warm := newTestManager(t, Options{Alg: alg, TTL: time.Hour, Now: clk.now, Store: st})
				cold := newTestManager(t, Options{Alg: alg, TTL: time.Hour, Now: clk.now, Store: st})
				tok, err := warm.Mint("alice")
				if err != nil {
					t.Fatalf("Mint: %v", err)
				}
				if _, err := warm.Validate(tok); err != nil {
					t.Fatalf("Validate before the key change: %v", err)
				}
				val := tc.val(t, st)
				warm.ApplyKV("session/key/1", val)
				cold.ApplyKV("session/key/1", val)
				_, werr := warm.Validate(tok)
				_, cerr := cold.Validate(tok)
				if !errors.Is(cerr, tc.want) || !errors.Is(werr, tc.want) {
					t.Fatalf("warm cache: %v, cold cache: %v, want %v for both", werr, cerr, tc.want)
				}
			})
		}
	}
}

// TestVerifyCacheBounded overfills the cache: it must hold at most
// cacheShardCount*cacheShardCap entries, each costing at most 100
// bytes of live heap (table slot and user name).
func TestVerifyCacheBounded(t *testing.T) {
	clk := newClock()
	// HMAC keeps 70k+ mint/validate pairs fast under -race.
	m := newTestManager(t, Options{Alg: AlgHMAC, TTL: time.Hour, Now: clk.now})
	before := liveHeap()
	// Overfill well past one shard's capacity; total held entries must
	// stay within the global bound.
	total := cacheShardCount*cacheShardCap + 5000
	for i := 0; i < total; i++ {
		tok, err := m.Mint(fmt.Sprintf("user-%d", i))
		if err != nil {
			t.Fatalf("Mint: %v", err)
		}
		if _, err := m.Validate(tok); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
	held := cacheEntries(m)
	perEntry := float64(liveHeap()-before) / float64(held)
	t.Logf("%.1f bytes of live heap per cached entry", perEntry)
	if held > cacheShardCount*cacheShardCap {
		t.Fatalf("cache holds %d entries, bound is %d", held, cacheShardCount*cacheShardCap)
	}
	if n := promSeries(t, m, "session_verify_cache_entries"); n != held {
		t.Fatalf("session_verify_cache_entries = %d with %d held after evictions", n, held)
	}
	if perEntry > 100 {
		t.Fatalf("cache holds %.1f bytes of live heap per entry, want at most 100", perEntry)
	}
}

// TestVerifyCacheHitRatio validates every token of a pool once, then
// validates uniform draws from the pool, and checks the second pass's
// hit ratio: a pool half the cache's capacity stays resident, and from
// a pool three times the capacity a draw hits about capacity/pool of
// the time, as it would with any eviction rule.
func TestVerifyCacheHitRatio(t *testing.T) {
	const capacity = cacheShardCount * cacheShardCap
	for _, tc := range []struct {
		name     string
		pool     int
		min, max float64
	}{
		{"0.5x", capacity / 2, 0.999, 1},
		{"3x", 3 * capacity, 1.0/3 - 0.01, 1.0/3 + 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestManager(t, Options{Alg: AlgHMAC, TTL: time.Hour, Now: newClock().now})
			toks := make([]string, tc.pool)
			for i := range toks {
				var err error
				if toks[i], err = m.Mint(fmt.Sprintf("user-%d", i)); err != nil {
					t.Fatalf("Mint: %v", err)
				}
				if _, err := m.Validate(toks[i]); err != nil {
					t.Fatalf("first pass: %v", err)
				}
			}
			rng := rand.New(rand.NewPCG(1, uint64(tc.pool)))
			hits := m.cacheHits.Load()
			for range tc.pool {
				if _, err := m.Validate(toks[rng.IntN(tc.pool)]); err != nil {
					t.Fatalf("second pass: %v", err)
				}
			}
			ratio := float64(m.cacheHits.Load()-hits) / float64(tc.pool)
			t.Logf("pool %d (%s the capacity): second-pass hit ratio %.4f", tc.pool, tc.name, ratio)
			if ratio < tc.min || ratio > tc.max {
				t.Fatalf("second-pass hit ratio %.4f, want within [%.4f, %.4f]", ratio, tc.min, tc.max)
			}
		})
	}
}

// TestVerifyCacheConcurrentMiss: goroutines that miss on one token at
// once must leave it in one slot, not one per goroutine. Ed25519's
// slow verify keeps the misses overlapping.
func TestVerifyCacheConcurrentMiss(t *testing.T) {
	m := newTestManager(t, Options{Alg: AlgEd25519, TTL: time.Hour, Now: newClock().now})
	tok, err := m.Mint("alice")
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := m.Validate(tok); err != nil {
				t.Errorf("Validate: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := promSeries(t, m, "session_verify_cache_entries"); n != 1 {
		t.Fatalf("session_verify_cache_entries = %d after concurrent validations of one token, want 1", n)
	}
}

// TestWritePrometheusVerifyCache checks the verify cache's series: the
// entries gauge counts what the cache holds, and a second validation of
// one token is a hit.
func TestWritePrometheusVerifyCache(t *testing.T) {
	m := newTestManager(t, Options{Alg: AlgHMAC, TTL: time.Hour, Now: newClock().now})
	series := func(name string) int { return promSeries(t, m, name) }
	if n := series("session_verify_cache_entries"); n != 0 {
		t.Fatalf("fresh manager: session_verify_cache_entries = %d, want 0", n)
	}
	var tok string
	for i := 0; i < 100; i++ {
		var err error
		if tok, err = m.Mint(fmt.Sprintf("user-%d", i)); err != nil {
			t.Fatalf("Mint: %v", err)
		}
		if _, err := m.Validate(tok); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
	if n, held := series("session_verify_cache_entries"), cacheEntries(m); n != held || n != 100 {
		t.Fatalf("session_verify_cache_entries = %d with %d held, want 100", n, held)
	}
	hits := series("session_verify_cache_hits_total")
	if _, err := m.Validate(tok); err != nil {
		t.Fatalf("second Validate: %v", err)
	}
	if n := series("session_verify_cache_hits_total"); n != hits+1 {
		t.Fatalf("session_verify_cache_hits_total went %d -> %d on a repeat validation, want +1", hits, n)
	}
	if n := series("session_verify_cache_entries"); n != 100 {
		t.Fatalf("a cache hit changed session_verify_cache_entries to %d", n)
	}
}

// promSeries returns the value of m's unlabelled Prometheus series name.
func promSeries(t *testing.T, m *Manager, name string) int {
	t.Helper()
	var b strings.Builder
	m.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s series", name)
	return 0
}

// cacheEntries counts the occupied slots of m's verify cache.
func cacheEntries(m *Manager) int {
	held := 0
	for i := range m.cache {
		sh := &m.cache[i]
		sh.mu.Lock()
		for j := range sh.slots {
			if sh.slots[j].k != nil {
				held++
			}
		}
		sh.mu.Unlock()
	}
	return held
}

// liveHeap collects garbage twice (the first collection only moves
// sync.Pool contents to their victim caches) and returns the bytes
// still in use.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestConcurrentUse(t *testing.T) {
	clk := newClock()
	st := newMemKV()
	m := newTestManager(t, Options{TTL: time.Hour, Now: clk.now, Store: st})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tok, err := m.Mint(fmt.Sprintf("u%d", w))
				if err != nil {
					t.Errorf("Mint: %v", err)
					return
				}
				if _, err := m.Validate(tok); err != nil && !errors.Is(err, ErrStaleGeneration) {
					t.Errorf("Validate: %v", err)
					return
				}
				if i%10 == 0 {
					if err := m.Rotate(); err != nil {
						t.Errorf("Rotate: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
