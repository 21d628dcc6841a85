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

// shard holds one partition's records, each packed into one immutable
// allocation (see passpoints.Packed) and keyed by its user name, a
// substring of that allocation.
type shard struct {
	mu      sync.RWMutex
	records map[string]passpoints.Packed
}

// put stores p under its user name. The key shares p's memory, and Go
// replaces a string key on overwrite, so a slot never pins a replaced
// record. Caller holds mu for writing.
func (sh *shard) put(p passpoints.Packed) { sh.records[p.User()] = p }

// newShardSet returns n empty shards (n <= 0 selects DefaultShards).
func newShardSet(n int) shardSet {
	if n <= 0 {
		n = DefaultShards
	}
	s := shardSet{shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].records = make(map[string]passpoints.Packed)
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
	for _, p := range recs {
		s.shards[s.index(p.User())].put(p)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *shardSet) Shards() int { return len(s.shards) }

// index picks key's shard by FNV-1a (see FNV32a).
func (s *shardSet) index(key string) int {
	return int(FNV32a(key) % uint32(len(s.shards)))
}

// pack packs a record a caller hands Put or Replace, which must name a
// user; the store keeps the copy, never the caller's record.
func pack(rec *passpoints.Record) (passpoints.Packed, error) {
	if rec == nil || rec.User == "" {
		return passpoints.Packed{}, fmt.Errorf("vault: record must have a user")
	}
	return passpoints.Pack(rec), nil
}

// Put stores a copy of the record for a new user.
func (s *Sharded) Put(rec *passpoints.Record) error {
	p, err := pack(rec)
	if err != nil {
		return err
	}
	sh := &s.shards[s.index(rec.User)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.records[rec.User]; ok {
		return ErrExists
	}
	sh.put(p)
	return nil
}

// Replace stores a copy of the record, overwriting any existing one
// (password change).
func (s *Sharded) Replace(rec *passpoints.Record) error {
	p, err := pack(rec)
	if err != nil {
		return err
	}
	sh := &s.shards[s.index(rec.User)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.put(p)
	return nil
}

// GetPacked returns user's packed record, or ErrNotFound, without
// allocating: the read login verifies in place.
func (s *shardSet) GetPacked(user string) (passpoints.Packed, error) {
	sh := &s.shards[s.index(user)]
	sh.mu.RLock()
	p, ok := sh.records[user]
	sh.mu.RUnlock()
	if !ok {
		return passpoints.Packed{}, ErrNotFound
	}
	return p, nil
}

// Get returns a copy of user's record, or ErrNotFound.
func (s *shardSet) Get(user string) (*passpoints.Record, error) {
	p, err := s.GetPacked(user)
	if err != nil {
		return nil, err
	}
	return p.Record(), nil
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

// All returns a copy of every record sorted by user — the attacker's
// view after a password-file compromise.
func (s *shardSet) All() []*passpoints.Record {
	recs := s.Snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].User < recs[j].User })
	return recs
}

// Snapshot returns a copy of every record in shard order without the
// global sort All performs. Each shard is read under its read lock, so
// the snapshot is per-shard-consistent; use it when the caller iterates
// once and does not need a canonical order.
func (s *shardSet) Snapshot() []*passpoints.Record {
	recs := make([]*passpoints.Record, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, p := range sh.records {
			recs = append(recs, p.Record())
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
