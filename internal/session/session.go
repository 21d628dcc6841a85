// Package session is the stateless session tier: a login that passes
// full click-sequence verification mints a signed expiring token, and
// every later request proves itself by signature alone — no vault
// read, no lockout check, no store round-trip on the validate path.
//
// The paper's motivation (PassPoints login verification is
// deliberately expensive) makes a per-request full verify untenable;
// this package moves the recurring cost to one signature check over
// an in-memory key set. Three mechanisms keep "in-memory" honest:
//
//   - Keys persist through the durable vault's replicated KV side
//     table (vault.KVStore) under session/key/<gen>, so sessions
//     survive a SIGKILL restart and, because KV entries ride the WAL
//     shipping stream, the follower can verify — and after promotion
//     mint — with the same key set.
//   - Rotation is generational with an overlap window: tokens signed
//     by generation N verify while the current generation is N or
//     N+1, so a rotation never invalidates the fleet's outstanding
//     sessions at once.
//   - Revocation is a per-user minted-before watermark
//     (session/rev/<user>): a password change, reset, or lockout
//     stamps now, and any token minted at or before the stamp is
//     refused from memory, again with no store read.
//
// A Manager whose Store is a follower never invents keys (its writes
// are refused); it adopts the primary's keys via the KV watch
// (ApplyKV) or a Reseed at promotion. That asymmetry is what keeps
// the two nodes' key sets convergent rather than merely similar.
package session

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// KV is the slice of the durable vault the session tier persists
// through. *vault.Durable and *repl.Node both satisfy it; a nil Store
// yields an ephemeral manager (tests, single-process demos) whose
// sessions die with the process.
type KV interface {
	// SetKV durably sets key to val; empty val deletes.
	SetKV(key string, val []byte) error
	// GetKV returns the value stored at key.
	GetKV(key string) ([]byte, bool)
	// KVRange returns a copy of every entry whose key has the prefix.
	KVRange(prefix string) map[string][]byte
}

// KV key prefixes inside the vault's side table.
const (
	keyPrefix = "session/key/" // session/key/<gen> → keyRecord JSON
	revPrefix = "session/rev/" // session/rev/<user> → decimal unix nanos
)

// Errors surfaced by Validate beyond ErrBadToken. Mint can
// additionally return ErrNoKey when no signing key is available yet
// (a follower that has not adopted the primary's keys).
var (
	// ErrNoKey means no signing key is installed.
	ErrNoKey = errors.New("session: no signing key available")
	// ErrExpired means the token's signature checked out but its
	// expiry has passed.
	ErrExpired = errors.New("session: token expired")
	// ErrRevoked means the token predates the user's revocation
	// watermark (password change, reset, or lockout).
	ErrRevoked = errors.New("session: token revoked")
	// ErrStaleGeneration means the token's signing generation has
	// rotated out of the overlap window.
	ErrStaleGeneration = errors.New("session: token generation rotated out")
)

// Options configures a Manager.
type Options struct {
	// Alg selects the signature algorithm for newly minted keys.
	// Zero means AlgEd25519. Existing persisted keys keep their own
	// algorithm; verification is per-key.
	Alg Alg
	// TTL is the token lifetime. Zero means 1 hour.
	TTL time.Duration
	// Rotate is the automatic key-rotation interval used by Start.
	// Zero disables the rotation loop (Rotate may still be called).
	Rotate time.Duration
	// Store persists keys and revocation watermarks. Nil keeps them
	// in memory only.
	Store KV
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

// key is an installed signing/verification key.
type key struct {
	id      uint64 // unique among the keys a Manager installs; binds cache entries
	alg     Alg
	gen     uint64
	secret  []byte // HMAC key, or Ed25519 seed
	priv    ed25519.PrivateKey
	pub     ed25519.PublicKey
	created int64 // unix seconds, informational
}

// keyRecord is the persisted JSON form of a key.
type keyRecord struct {
	V       int    `json:"v"`
	Alg     string `json:"alg"`
	Gen     uint64 `json:"gen"`
	Secret  []byte `json:"secret"`
	Created int64  `json:"created"`
}

// Verify-memoization cache. A full Ed25519 verify costs tens of
// microseconds — the same order as the PassPoints hash chain it is
// supposed to undercut — so the Manager remembers which tokens'
// signatures have already checked out, and under which key. Validate
// checks the generation window and the installed key before it looks,
// and the expiry and revocation watermark after, on every call, reading
// each claim back from the token: only signature validity is cached,
// and nothing that can change after minting is.
//
// An entry is nothing but the SHA-256 digest of the token followed by
// the id of the installed key that verified it. A token that never
// verified can hit only through a SHA-256 collision, and a token
// verified under a key since deleted or replaced cannot hit at all,
// because an installed key never shares its id. The digest's first byte
// picks the shard. A shard is a fixed table of cacheShardCap digests,
// grouped into cacheWays-slot sets. Two slices of the digest name a
// token's two candidate sets (two choices keep the sets evenly
// loaded), and a lookup compares the full digest in both. A set fills
// front to back and never frees one slot, so its occupied slots are
// the first fill[set] of it. The tables hold no pointers, so the
// garbage collector never scans them.
const (
	cacheShardCount = 16
	cacheShardCap   = 4096
	cacheWays       = 8
	cacheSets       = cacheShardCap / cacheWays
)

type cacheShard struct {
	mu    sync.Mutex
	slots *[cacheShardCap][sha256.Size]byte // nil until the first insert
	fill  *[cacheSets]uint8                 // occupied slots per set; made with slots
	n     int                               // occupied slots
	evict uint32                            // round-robin eviction cursor
}

// candidateSets returns d's two candidate sets. Neither slice includes
// d[0], which picked the shard.
func candidateSets(d *[sha256.Size]byte) [2]int {
	return [2]int{
		int(binary.LittleEndian.Uint32(d[1:5]) % cacheSets),
		int(binary.LittleEndian.Uint32(d[5:9]) % cacheSets),
	}
}

// find reports whether the shard holds d. Caller holds mu.
func (s *cacheShard) find(d *[sha256.Size]byte) bool {
	if s.slots == nil {
		return false
	}
	for _, set := range candidateSets(d) {
		first := set * cacheWays
		for i := first; i < first+int(s.fill[set]); i++ {
			if s.slots[i] == *d {
				return true
			}
		}
	}
	return false
}

// insert stores d unless the shard holds it already, so two concurrent
// misses on one token take one slot: in the emptier candidate set, or
// else over a round-robin victim from one of the two full sets. Caller
// holds mu.
func (s *cacheShard) insert(d *[sha256.Size]byte) {
	if s.slots == nil {
		s.slots = new([cacheShardCap][sha256.Size]byte)
		s.fill = new([cacheSets]uint8)
	}
	if s.find(d) {
		return
	}
	sets := candidateSets(d)
	a, b := sets[0], sets[1]
	var i int
	switch {
	case s.fill[a] < cacheWays && s.fill[a] <= s.fill[b]:
		i = a*cacheWays + int(s.fill[a])
		s.fill[a]++
		s.n++
	case s.fill[b] < cacheWays:
		i = b*cacheWays + int(s.fill[b])
		s.fill[b]++
		s.n++
	default:
		// The cache is a memoization, not an LRU: correctness
		// never depends on what is in it.
		s.evict++
		i = sets[s.evict&1]*cacheWays + int(s.evict>>1)%cacheWays
	}
	s.slots[i] = *d
}

// Manager mints, validates, rotates, and revokes session tokens.
// Validate touches only Manager memory — that is the tier's whole
// point — while Mint, Rotate, and Revoke write through the Store.
type Manager struct {
	opts Options

	// rotateMu serializes Rotate end to end so concurrent rotations
	// cannot persist two different secrets under one generation.
	rotateMu sync.Mutex

	mu     sync.RWMutex
	keys   map[uint64]*key
	cur    uint64 // current minting generation; 0 = none installed
	lastID uint64 // id of the key installed last

	revMu sync.RWMutex
	rev   map[string]int64 // user → minted-at-or-before watermark, unix nanos

	cache [cacheShardCount]cacheShard

	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once

	// Counters for the Prometheus surface.
	mints        atomic.Uint64
	mintFailures atomic.Uint64
	validateOK   atomic.Uint64
	cacheHits    atomic.Uint64
	rejBadToken  atomic.Uint64
	rejExpired   atomic.Uint64
	rejRevoked   atomic.Uint64
	rejStaleGen  atomic.Uint64
	rotations    atomic.Uint64
	revocations  atomic.Uint64
}

// New builds a Manager, reseeds any persisted key and revocation
// state from the Store, and — on a node whose Store accepts writes —
// creates the first key if none exists. On a follower the initial
// creation is deferred: keys arrive through ApplyKV as the primary's
// writes replicate.
func New(opts Options) (*Manager, error) {
	if opts.Alg == 0 {
		opts.Alg = AlgEd25519
	}
	if _, err := ParseAlg(opts.Alg.String()); err != nil {
		return nil, err
	}
	if opts.TTL <= 0 {
		opts.TTL = time.Hour
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	m := &Manager{
		opts: opts,
		keys: make(map[uint64]*key),
		rev:  make(map[string]int64),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := m.Reseed(); err != nil {
		return nil, err
	}
	return m, nil
}

// Reseed reloads keys and revocation watermarks from the Store and,
// if the key set is empty, attempts to create generation 1. It is
// called by New and must be called again when a follower is promoted:
// the watch kept it current, but promotion makes the store writable,
// so a node promoted before the primary ever minted can now create
// the first key itself.
func (m *Manager) Reseed() error {
	if m.opts.Store == nil {
		m.ensureFirstKey()
		return nil
	}
	for k, v := range m.opts.Store.KVRange("session/") {
		m.ApplyKV(k, v)
	}
	m.ensureFirstKey()
	return nil
}

// ensureFirstKey creates generation cur+1 when no key is installed,
// tolerating a store that refuses writes (follower): the creation is
// simply retried at the next Reseed or rotation tick, and in the
// meantime ApplyKV will usually have delivered the primary's keys.
func (m *Manager) ensureFirstKey() {
	m.mu.RLock()
	empty := m.cur == 0
	m.mu.RUnlock()
	if !empty {
		return
	}
	if err := m.Rotate(); err != nil {
		m.opts.Logf("session: deferring initial key creation: %v", err)
	}
}

// Rotate creates and persists the next key generation, makes it the
// minting key, and retires generations older than the overlap window
// (current and previous) from memory and the Store. On a node whose
// Store refuses writes the rotation is aborted before any local state
// changes — followers never invent keys the primary cannot verify.
func (m *Manager) Rotate() error {
	m.rotateMu.Lock()
	defer m.rotateMu.Unlock()
	m.mu.RLock()
	gen := m.cur + 1
	m.mu.RUnlock()

	k, rec, err := newKey(m.opts.Alg, gen, m.opts.Now().Unix())
	if err != nil {
		return err
	}
	if m.opts.Store != nil {
		buf, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		// Persist first: a key that exists only in this process's
		// memory would mint tokens that neither a restarted self nor
		// the follower could verify.
		if err := m.opts.Store.SetKV(keyPrefix+strconv.FormatUint(gen, 10), buf); err != nil {
			return fmt.Errorf("persisting session key gen %d: %w", gen, err)
		}
	}

	var retired []uint64
	m.mu.Lock()
	m.install(k)
	if gen > m.cur {
		m.cur = gen
	}
	for g := range m.keys {
		if g+1 < m.cur {
			delete(m.keys, g)
			retired = append(retired, g)
		}
	}
	m.mu.Unlock()

	if m.opts.Store != nil {
		for _, g := range retired {
			// Best-effort: a failed delete leaves a dead record that
			// the next successful rotation retries.
			if err := m.opts.Store.SetKV(keyPrefix+strconv.FormatUint(g, 10), nil); err != nil {
				m.opts.Logf("session: retiring key gen %d: %v", g, err)
			}
		}
	}
	m.rotations.Add(1)
	m.opts.Logf("session: rotated to key generation %d (%s)", gen, k.alg)
	return nil
}

// install makes k its generation's key under a fresh id, so no cache
// entry made under an earlier key of that generation can hit. Caller
// holds mu for writing.
func (m *Manager) install(k *key) {
	m.lastID++
	k.id = m.lastID
	m.keys[k.gen] = k
}

// newKey generates key material for gen under alg.
func newKey(alg Alg, gen uint64, created int64) (*key, *keyRecord, error) {
	secret := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, secret); err != nil {
		return nil, nil, err
	}
	k := &key{alg: alg, gen: gen, secret: secret, created: created}
	if alg == AlgEd25519 {
		k.priv = ed25519.NewKeyFromSeed(secret)
		k.pub = k.priv.Public().(ed25519.PublicKey)
	}
	rec := &keyRecord{V: 1, Alg: alg.String(), Gen: gen, Secret: secret, Created: created}
	return k, rec, nil
}

// keyFromRecord rebuilds an installed key from its persisted form.
func keyFromRecord(rec *keyRecord) (*key, error) {
	alg, err := ParseAlg(rec.Alg)
	if err != nil {
		return nil, err
	}
	if len(rec.Secret) != 32 {
		return nil, fmt.Errorf("session: key gen %d has %d-byte secret, want 32", rec.Gen, len(rec.Secret))
	}
	if rec.Gen == 0 {
		return nil, errors.New("session: key record has generation 0")
	}
	k := &key{alg: alg, gen: rec.Gen, secret: rec.Secret, created: rec.Created}
	if alg == AlgEd25519 {
		k.priv = ed25519.NewKeyFromSeed(rec.Secret)
		k.pub = k.priv.Public().(ed25519.PublicKey)
	}
	return k, nil
}

// ApplyKV feeds one replicated (or reseeded) side-table entry into
// the Manager. Wire it to the vault's KV watch
// (vault.KVStore.SetKVWatch) so a follower's key set and revocation
// watermarks track the primary's with no polling. Unknown keys under
// other prefixes are ignored; malformed session entries are logged
// and dropped rather than poisoning the manager.
func (m *Manager) ApplyKV(kvKey string, val []byte) {
	switch {
	case strings.HasPrefix(kvKey, keyPrefix):
		gen, err := strconv.ParseUint(kvKey[len(keyPrefix):], 10, 64)
		if err != nil || gen == 0 {
			m.opts.Logf("session: ignoring malformed key entry %q", kvKey)
			return
		}
		if len(val) == 0 {
			m.mu.Lock()
			delete(m.keys, gen)
			m.mu.Unlock()
			return
		}
		var rec keyRecord
		if err := json.Unmarshal(val, &rec); err != nil {
			m.opts.Logf("session: ignoring undecodable key gen %d: %v", gen, err)
			return
		}
		rec.Gen = gen // the KV key is authoritative
		k, err := keyFromRecord(&rec)
		if err != nil {
			m.opts.Logf("session: ignoring unusable key gen %d: %v", gen, err)
			return
		}
		m.mu.Lock()
		// A re-delivered record (Reseed, a snapshot install) keeps the
		// installed key, and with its id the cache entries it verified.
		if old := m.keys[gen]; old == nil || old.alg != k.alg || !bytes.Equal(old.secret, k.secret) {
			m.install(k)
		}
		if gen > m.cur {
			m.cur = gen
			for g := range m.keys {
				if g+1 < m.cur {
					delete(m.keys, g)
				}
			}
		}
		m.mu.Unlock()
	case strings.HasPrefix(kvKey, revPrefix):
		user := kvKey[len(revPrefix):]
		if user == "" {
			return
		}
		if len(val) == 0 {
			m.revMu.Lock()
			delete(m.rev, user)
			m.revMu.Unlock()
			return
		}
		wm, err := strconv.ParseInt(string(val), 10, 64)
		if err != nil {
			m.opts.Logf("session: ignoring malformed revocation for %q: %v", user, err)
			return
		}
		m.revMu.Lock()
		if wm > m.rev[user] {
			m.rev[user] = wm
		}
		m.revMu.Unlock()
	}
}

// Mint issues a signed token for user, valid for the configured TTL.
func (m *Manager) Mint(user string) (string, error) {
	m.mu.RLock()
	k := m.keys[m.cur]
	m.mu.RUnlock()
	if k == nil {
		m.mintFailures.Add(1)
		return "", ErrNoKey
	}
	now := m.opts.Now()
	c := &claims{
		alg:    k.alg,
		gen:    k.gen,
		expiry: now.Add(m.opts.TTL).UnixNano(),
		minted: now.UnixNano(),
		user:   user,
	}
	tok, err := encodeToken(c, k)
	if err != nil {
		m.mintFailures.Add(1)
		return "", err
	}
	m.mints.Add(1)
	return tok, nil
}

// Validate checks a token and returns the user it names. It performs
// no store I/O of any kind: signature keys, the generation window,
// and revocation watermarks are all consulted in memory. The error is
// ErrBadToken, ErrExpired, ErrStaleGeneration, or ErrRevoked.
func (m *Manager) Validate(token string) (string, error) {
	// One copy of the token in a stack buffer feeds the prefix decode
	// and the digest, so tokens up to 248 bytes allocate for neither;
	// []byte(token) would allocate on every call.
	var buf [256]byte
	in := append(buf[:0], token...)
	var p prefix
	var c claims
	userLen, sigLen, ok := p.decode(in, &c)
	var k *key
	if ok {
		m.mu.RLock()
		if c.gen == m.cur || c.gen+1 == m.cur {
			k = m.keys[c.gen]
		}
		m.mu.RUnlock()
	}
	if k == nil || k.alg != c.alg || len(token) != tokenEncoding.EncodedLen(tokenHdrLen+userLen+sigLen) {
		return "", m.reject(token)
	}

	digest := sha256.Sum256(binary.LittleEndian.AppendUint64(in, k.id))
	sh := &m.cache[digest[0]%cacheShardCount]
	sh.mu.Lock()
	hit := sh.find(&digest)
	sh.mu.Unlock()
	if hit {
		m.cacheHits.Add(1)
		c.user = p.user(in[:len(token)], userLen)
	} else {
		full, payload, sig, err := decodeToken(token)
		if err != nil || !k.verify(payload, sig) {
			m.rejBadToken.Add(1)
			return "", ErrBadToken
		}
		sh.mu.Lock()
		sh.insert(&digest)
		sh.mu.Unlock()
		c.user = full.user
	}

	// The mutable predicates are checked on every call, cached or not:
	// a cache hit only skips the signature arithmetic.
	if m.opts.Now().UnixNano() >= c.expiry {
		m.rejExpired.Add(1)
		return "", ErrExpired
	}
	m.revMu.RLock()
	wm := m.rev[c.user]
	m.revMu.RUnlock()
	if c.minted <= wm {
		m.rejRevoked.Add(1)
		return "", ErrRevoked
	}
	m.validateOK.Add(1)
	return c.user, nil
}

// reject returns the verdict on a token refused before the cache, with
// the precedence a full decode gives: a token that does not decode is
// bad, one outside the generation window is stale, and any other — no
// key installed for its generation, or an algorithm or length that
// disagrees with the key — is bad.
func (m *Manager) reject(token string) error {
	if c, _, _, err := decodeToken(token); err == nil {
		m.mu.RLock()
		inWindow := c.gen == m.cur || c.gen+1 == m.cur
		m.mu.RUnlock()
		if !inWindow {
			m.rejStaleGen.Add(1)
			return ErrStaleGeneration
		}
	}
	m.rejBadToken.Add(1)
	return ErrBadToken
}

// Revoke stamps user's revocation watermark at now: every token
// minted at or before this instant is refused from here on. The local
// watermark takes effect immediately even if the durable write fails
// (a follower applying a replicated lockout cannot write, but must
// still refuse locally); the returned error reports only the
// persistence outcome.
func (m *Manager) Revoke(user string) error {
	if user == "" {
		return nil
	}
	wm := m.opts.Now().UnixNano()
	m.revMu.Lock()
	if wm > m.rev[user] {
		m.rev[user] = wm
	}
	m.revMu.Unlock()
	m.revocations.Add(1)
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.SetKV(revPrefix+user, []byte(strconv.FormatInt(wm, 10)))
}

// Start launches the automatic rotation loop when Options.Rotate is
// positive. Safe to call once; Close stops it.
func (m *Manager) Start() {
	m.startOnce.Do(func() {
		if m.opts.Rotate <= 0 {
			close(m.done)
			return
		}
		go func() {
			defer close(m.done)
			t := time.NewTicker(m.opts.Rotate)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					if err := m.Rotate(); err != nil {
						m.opts.Logf("session: rotation failed: %v", err)
					}
				}
			}
		}()
	})
}

// Close stops the rotation loop. The Manager remains usable for
// validation afterwards.
func (m *Manager) Close() {
	m.startOnce.Do(func() { close(m.done) }) // never Started: nothing to wait for
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// Generations returns the current minting generation and the number
// of key generations held in memory.
func (m *Manager) Generations() (cur uint64, active int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur, len(m.keys)
}

// WritePrometheus writes the session tier's metrics in the
// Prometheus text exposition format: mint/validate/reject counters,
// cache hits and entries, rotations, revocations, and the
// key-generation gauges.
func (m *Manager) WritePrometheus(w io.Writer) {
	cur, active := m.Generations()
	m.revMu.RLock()
	revoked := len(m.rev)
	m.revMu.RUnlock()
	cached := 0
	for i := range m.cache {
		sh := &m.cache[i]
		sh.mu.Lock()
		cached += sh.n
		sh.mu.Unlock()
	}
	fmt.Fprintf(w, "# HELP session_mint_total Session tokens minted.\n")
	fmt.Fprintf(w, "# TYPE session_mint_total counter\n")
	fmt.Fprintf(w, "session_mint_total %d\n", m.mints.Load())
	fmt.Fprintf(w, "# HELP session_mint_failures_total Mint attempts that failed (no key, or signing error).\n")
	fmt.Fprintf(w, "# TYPE session_mint_failures_total counter\n")
	fmt.Fprintf(w, "session_mint_failures_total %d\n", m.mintFailures.Load())
	fmt.Fprintf(w, "# HELP session_validate_total Token validations, by outcome.\n")
	fmt.Fprintf(w, "# TYPE session_validate_total counter\n")
	fmt.Fprintf(w, "session_validate_total{outcome=\"ok\"} %d\n", m.validateOK.Load())
	fmt.Fprintf(w, "session_validate_total{outcome=\"bad_token\"} %d\n", m.rejBadToken.Load())
	fmt.Fprintf(w, "session_validate_total{outcome=\"expired\"} %d\n", m.rejExpired.Load())
	fmt.Fprintf(w, "session_validate_total{outcome=\"revoked\"} %d\n", m.rejRevoked.Load())
	fmt.Fprintf(w, "session_validate_total{outcome=\"stale_generation\"} %d\n", m.rejStaleGen.Load())
	fmt.Fprintf(w, "# HELP session_verify_cache_hits_total Validations served from the signature memoization cache.\n")
	fmt.Fprintf(w, "# TYPE session_verify_cache_hits_total counter\n")
	fmt.Fprintf(w, "session_verify_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "# HELP session_verify_cache_entries Verified tokens held in the signature memoization cache.\n")
	fmt.Fprintf(w, "# TYPE session_verify_cache_entries gauge\n")
	fmt.Fprintf(w, "session_verify_cache_entries %d\n", cached)
	fmt.Fprintf(w, "# HELP session_rotations_total Key rotations performed.\n")
	fmt.Fprintf(w, "# TYPE session_rotations_total counter\n")
	fmt.Fprintf(w, "session_rotations_total %d\n", m.rotations.Load())
	fmt.Fprintf(w, "# HELP session_revocations_total Revocation watermarks stamped.\n")
	fmt.Fprintf(w, "# TYPE session_revocations_total counter\n")
	fmt.Fprintf(w, "session_revocations_total %d\n", m.revocations.Load())
	fmt.Fprintf(w, "# HELP session_key_generation Current minting key generation.\n")
	fmt.Fprintf(w, "# TYPE session_key_generation gauge\n")
	fmt.Fprintf(w, "session_key_generation %d\n", cur)
	fmt.Fprintf(w, "# HELP session_active_key_generations Key generations held in memory (current plus overlap).\n")
	fmt.Fprintf(w, "# TYPE session_active_key_generations gauge\n")
	fmt.Fprintf(w, "session_active_key_generations %d\n", active)
	fmt.Fprintf(w, "# HELP session_revoked_users Users with an active revocation watermark.\n")
	fmt.Fprintf(w, "# TYPE session_revoked_users gauge\n")
	fmt.Fprintf(w, "session_revoked_users %d\n", revoked)
}
