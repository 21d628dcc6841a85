// Package vault is the server-side "password file": a store of
// PassPoints records keyed by user name behind the Store interface.
// Three implementations ship: Vault, the original single-RWMutex map
// with an atomic file-backed save; Sharded, an fnv-partitioned store
// whose reads scale with cores; and Durable, the crash-safe backend
// that appends every mutation to a checksummed per-shard log before
// acking and replays the logs on startup. All three speak the same
// on-disk JSON snapshot format (Durable via SaveTo/ImportJSON), so a
// deployment can migrate between backends in place. Stealing this
// state is the offline-attack scenario of the paper's §5.1 — it
// exposes salts, iteration counts, clear grid identifiers and
// digests, but no click-points.
package vault

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"clickpass/internal/canonjson"
	"clickpass/internal/passpoints"
)

// ErrNotFound is returned when a user has no record.
var ErrNotFound = fmt.Errorf("vault: user not found")

// ErrExists is returned when creating a record for an existing user.
var ErrExists = fmt.Errorf("vault: user already exists")

// Vault is an in-memory store of password records, optionally backed
// by a JSON file. It is safe for concurrent use.
type Vault struct {
	mu      sync.RWMutex
	records map[string]*passpoints.Record
	path    string // empty for purely in-memory vaults
}

// New returns an empty in-memory vault.
func New() *Vault {
	return &Vault{records: make(map[string]*passpoints.Record)}
}

// Open loads a vault from path, creating an empty one if the file does
// not exist. Saves write back to the same path.
func Open(path string) (*Vault, error) {
	v := New()
	v.path = path
	recs, err := loadRecords(path)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		v.records[r.User] = r
	}
	return v, nil
}

// loadRecords reads and validates a vault file: well-formed JSON, every
// record carries a user, no user appears twice. A missing file is an
// empty vault, not an error. Shared by every Store implementation so
// the validation rules cannot drift between backends.
func loadRecords(path string) ([]*passpoints.Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("vault: reading %s: %w", path, err)
	}
	recs, err := ParseRecords(data)
	if err != nil {
		return nil, fmt.Errorf("vault: %s: %w", path, err)
	}
	return recs, nil
}

// ParseRecords decodes a vault file's contents, enforcing the format
// invariants (records must name distinct, non-empty users). Exposed so
// fuzzing and external tools can exercise exactly the parser the
// stores use.
func ParseRecords(data []byte) ([]*passpoints.Record, error) {
	var recs []*passpoints.Record
	if err := canonjson.Unmarshal(data, &recs, readSnapshot); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if r == nil {
			return nil, fmt.Errorf("contains a null record")
		}
		if r.User == "" {
			return nil, fmt.Errorf("contains a record without a user")
		}
		if seen[r.User] {
			return nil, fmt.Errorf("contains duplicate user %q", r.User)
		}
		seen[r.User] = true
	}
	return recs, nil
}

// readSnapshot reads a snapshot file without reflection: the JSON
// array of records writeRecords produces.
func readSnapshot(r *canonjson.Reader, recs *[]*passpoints.Record) {
	*recs = canonjson.Slice(r, passpoints.ReadRecord)
}

// Put stores a record for a new user.
func (v *Vault) Put(rec *passpoints.Record) error {
	if rec == nil || rec.User == "" {
		return fmt.Errorf("vault: record must have a user")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.records[rec.User]; ok {
		return ErrExists
	}
	v.records[rec.User] = rec
	return nil
}

// Replace stores a record, overwriting any existing one (password
// change).
func (v *Vault) Replace(rec *passpoints.Record) error {
	if rec == nil || rec.User == "" {
		return fmt.Errorf("vault: record must have a user")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.records[rec.User] = rec
	return nil
}

// Get returns the record for user, or ErrNotFound.
func (v *Vault) Get(user string) (*passpoints.Record, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	rec, ok := v.records[user]
	if !ok {
		return nil, ErrNotFound
	}
	return rec, nil
}

// Delete removes a user's record; deleting a missing user is not an
// error.
func (v *Vault) Delete(user string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.records, user)
}

// Users returns all user names in sorted order.
func (v *Vault) Users() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	users := make([]string, 0, len(v.records))
	for u := range v.records {
		users = append(users, u)
	}
	sort.Strings(users)
	return users
}

// Len returns the number of records.
func (v *Vault) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.records)
}

// All returns every record sorted by user — the attacker's view after
// a password-file compromise.
func (v *Vault) All() []*passpoints.Record {
	v.mu.RLock()
	defer v.mu.RUnlock()
	recs := make([]*passpoints.Record, 0, len(v.records))
	for _, r := range v.records {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].User < recs[j].User })
	return recs
}

// Save writes the vault to its backing file atomically (write to a
// temp file in the same directory, then rename). It fails for purely
// in-memory vaults.
func (v *Vault) Save() error {
	if v.path == "" {
		return fmt.Errorf("vault: no backing file configured")
	}
	return v.SaveTo(v.path)
}

// SaveTo writes the vault to the given path atomically.
func (v *Vault) SaveTo(path string) error {
	return writeRecords(path, v.All())
}

// writeRecords writes a record snapshot to path atomically (write to a
// temp file in the same directory, then rename). Shared by every Store
// implementation.
func writeRecords(path string, recs []*passpoints.Record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return fmt.Errorf("vault: encoding: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".vault-*")
	if err != nil {
		return fmt.Errorf("vault: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("vault: writing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("vault: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("vault: committing %s: %w", path, err)
	}
	return nil
}
