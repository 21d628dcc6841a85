package vault

import "clickpass/internal/passpoints"

// Store is the narrow interface the authentication server and tools
// program against: a keyed collection of PassPoints records with an
// atomic snapshot-to-disk operation. Two implementations ship with the
// package — the in-memory, fnv-keyed Sharded store whose reads scale
// with cores, and the crash-safe Durable store that logs every
// mutation to a per-shard append-only file — and the contract is
// enforced by a shared conformance test (storeImpls in
// sharded_test.go) rather than by each caller's assumptions.
//
// All implementations must be safe for concurrent use. Get and
// GetPacked return ErrNotFound for missing users; Put returns ErrExists
// for duplicates; Delete of a missing user is a no-op. A store keeps a
// copy of what Put and Replace hand it, and Get, All and Snapshot hand
// out copies the caller owns, so no caller can change a stored record.
// Login reads with GetPacked and verifies the packed value in place;
// Get serves tools and tests.
type Store interface {
	// Put stores a copy of the record for a new user.
	Put(rec *passpoints.Record) error
	// Replace stores a copy of the record, overwriting any existing one.
	Replace(rec *passpoints.Record) error
	// Get returns a copy of user's record, or ErrNotFound.
	Get(user string) (*passpoints.Record, error)
	// GetPacked returns user's packed record, or ErrNotFound, without
	// allocating.
	GetPacked(user string) (passpoints.Packed, error)
	// Delete removes a user's record; missing users are not an error.
	Delete(user string)
	// Users returns all user names in sorted order.
	Users() []string
	// Len returns the number of records.
	Len() int
	// All returns a copy of every record sorted by user.
	All() []*passpoints.Record
	// Save writes the store to its backing file atomically; it fails
	// for purely in-memory stores.
	Save() error
	// SaveTo writes the store to the given path atomically.
	SaveTo(path string) error
}

// LockoutStore is an optional Store extension for backends that can
// persist per-account failed-attempt counters alongside the records.
// The auth service type-asserts its store against this interface: when
// present, every lockout change is written through (and loaded at the
// service's first record read), so the §5.1 online-attack defense
// survives a restart instead of handing every attacker a fresh budget.
// The in-memory Sharded store deliberately does not implement it.
type LockoutStore interface {
	// SetLockout durably records user's failed-attempt count;
	// failures <= 0 clears the entry.
	SetLockout(user string, failures int) error
	// Lockouts returns a copy of every persisted counter.
	Lockouts() map[string]int
}

// KVStore is an optional Store extension for backends that can
// durably persist a small side table of opaque blobs alongside the
// records — configuration-grade state that must survive a restart and
// replicate with the vault, but is not a PassPoints record. The
// session tier type-asserts its store against this interface to
// persist signing keys and revocation watermarks; backends without it
// (the in-memory Sharded store) leave the session tier in
// soft-state-only mode. Keys are partitioned by FNV32a(key) exactly like records.
type KVStore interface {
	// SetKV durably sets key's blob; an empty or nil val deletes it.
	SetKV(key string, val []byte) error
	// GetKV returns a copy of key's blob and whether it exists.
	GetKV(key string) ([]byte, bool)
	// KVRange returns a copy of every entry whose key starts with
	// prefix ("" for all).
	KVRange(prefix string) map[string][]byte
	// SetKVWatch installs (or with nil removes) an observer for keys
	// changed by REPLICATION apply paths — not by local SetKV calls.
	// The callback runs outside store locks and must tolerate
	// duplicate deliveries; val is nil for a deletion.
	SetKVWatch(fn func(key string, val []byte))
}

// All implementations must satisfy the interface.
var (
	_ Store   = (*Sharded)(nil)
	_ KVStore = (*Durable)(nil)
)

// FNV32a returns the FNV-1a hash of s — the partitioning hash every
// fnv-sharded structure in the repo keys on (the sharded store, the
// durable store's logs, authsvc's rate-limiter buckets). The byte
// loop is inlined rather than using hash/fnv so hot paths stay
// allocation-free (hash/fnv heap-allocates its state and a []byte
// copy per call).
func FNV32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
