package vault

import (
	"fmt"
	"sort"
	"sync"

	"clickpass/internal/passpoints"
)

// DefaultShards is the shard count used when a caller passes n <= 0.
// 32 shards keep the per-shard maps small and make writer collisions
// rare without bloating an empty store.
const DefaultShards = 32

// shardSet is the record map both stores keep: N independently locked
// shards keyed by FNV-1a of the user name, and the read path over
// them. Sharded embeds it with its own Put/Replace/Delete; Durable
// embeds it and pairs each shard with a log (walShard) that holds the
// shard's write lock while it appends. Reads on different shards never
// contend, and a writer blocks only 1/N of the key space instead of
// every reader, so throughput scales with cores under the read-heavy
// mix an authentication front end produces. Cross-shard reads (Users,
// Len, All, Snapshot, SaveTo) are per-shard-consistent: each shard is
// read atomically, but the shards are visited in sequence, so a
// concurrent writer may land between visits. That is the same
// guarantee a single lock over the whole map gives a caller who
// performs two reads.
type shardSet struct {
	shards []shard
}

// Sharded is the in-memory Store: N independently locked shards keyed
// by FNV-1a of the user name, loaded from and saved atomically to a
// JSON snapshot file. Its reads are the shard set's (see shardSet):
// they scale with cores, and cross-shard reads are
// per-shard-consistent.
type Sharded struct {
	shardSet
	path string // empty for purely in-memory stores
}

type shard struct {
	mu      sync.RWMutex
	records map[string]*passpoints.Record
}

// newShardSet returns n empty shards (n <= 0 selects DefaultShards).
func newShardSet(n int) shardSet {
	if n <= 0 {
		n = DefaultShards
	}
	s := shardSet{shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].records = make(map[string]*passpoints.Record)
	}
	return s
}

// NewSharded returns an empty in-memory sharded store with n shards
// (n <= 0 selects DefaultShards).
func NewSharded(n int) *Sharded {
	return &Sharded{shardSet: newShardSet(n)}
}

// OpenSharded loads a sharded store from path, creating an empty one
// if the file does not exist. The file is the JSON snapshot format
// Durable imports and exports, and it does not depend on the shard
// count. Saves write back to the same path.
func OpenSharded(path string, n int) (*Sharded, error) {
	s := NewSharded(n)
	s.path = path
	recs, err := loadRecords(path)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		sh := &s.shards[s.index(r.User)]
		sh.records[r.User] = r
	}
	return s, nil
}

// Shards returns the shard count.
func (s *shardSet) Shards() int { return len(s.shards) }

// index picks key's shard by FNV-1a (see FNV32a).
func (s *shardSet) index(key string) int {
	return int(FNV32a(key) % uint32(len(s.shards)))
}

// Put stores a record for a new user.
func (s *Sharded) Put(rec *passpoints.Record) error {
	if rec == nil || rec.User == "" {
		return fmt.Errorf("vault: record must have a user")
	}
	sh := &s.shards[s.index(rec.User)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.records[rec.User]; ok {
		return ErrExists
	}
	sh.records[rec.User] = rec
	return nil
}

// Replace stores a record, overwriting any existing one (password
// change).
func (s *Sharded) Replace(rec *passpoints.Record) error {
	if rec == nil || rec.User == "" {
		return fmt.Errorf("vault: record must have a user")
	}
	sh := &s.shards[s.index(rec.User)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.records[rec.User] = rec
	return nil
}

// Get returns the record for user, or ErrNotFound.
func (s *shardSet) Get(user string) (*passpoints.Record, error) {
	sh := &s.shards[s.index(user)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.records[user]
	if !ok {
		return nil, ErrNotFound
	}
	return rec, nil
}

// Delete removes a user's record; deleting a missing user is not an
// error.
func (s *Sharded) Delete(user string) {
	sh := &s.shards[s.index(user)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.records, user)
}

// Users returns all user names in sorted order.
func (s *shardSet) Users() []string {
	users := make([]string, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for u := range sh.records {
			users = append(users, u)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(users)
	return users
}

// Len returns the number of records.
func (s *shardSet) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.records)
		sh.mu.RUnlock()
	}
	return n
}

// All returns every record sorted by user — the attacker's view after
// a password-file compromise.
func (s *shardSet) All() []*passpoints.Record {
	recs := s.Snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].User < recs[j].User })
	return recs
}

// Snapshot returns every record in shard order without the global sort
// All performs. Each shard is copied under its read lock, so the
// snapshot is per-shard-consistent; use it when the caller iterates
// once and does not need a canonical order.
func (s *shardSet) Snapshot() []*passpoints.Record {
	recs := make([]*passpoints.Record, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, r := range sh.records {
			recs = append(recs, r)
		}
		sh.mu.RUnlock()
	}
	return recs
}

// Save writes the store to its backing file atomically. It fails for
// purely in-memory stores.
func (s *Sharded) Save() error {
	if s.path == "" {
		return fmt.Errorf("vault: no backing file configured")
	}
	return s.SaveTo(s.path)
}

// SaveTo writes the store to the given path atomically, as the JSON
// array of records sorted by user: the snapshot OpenSharded reads and
// Durable.ImportJSON loads, so a deployment can migrate between the
// backends in either direction.
func (s *shardSet) SaveTo(path string) error {
	return writeRecords(path, s.All())
}
