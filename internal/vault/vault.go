// Package vault is the server-side "password file": a store of
// PassPoints records keyed by user name behind the Store interface.
// Two implementations ship, and both keep their records in one shard
// set: an fnv-partitioned map of packed records (one immutable
// allocation per account, see passpoints.Packed) with an RWMutex per
// shard and one read path, whose reads scale with cores. Sharded is
// that set in memory, loaded from a JSON snapshot and written to one
// atomically by SaveTo. Durable, the crash-safe backend, pairs each
// shard with a checksummed append-only log, appends every mutation to
// it before acking, and replays the logs on startup. A log record is
// binary: a put carries the account's packed bytes as they are, and
// replay still reads the JSON records earlier releases wrote. Every
// append — a local mutation, ImportJSON, and a replication follower's
// ApplyReplFrames — goes through one group commit, fsynced when the
// caller asks for it, under one failure rule. Both backends speak the
// same on-disk JSON snapshot format (Durable via SaveTo/ImportJSON), so
// a deployment can migrate between backends in place. Stealing this
// state is the offline-attack scenario of the paper's §5.1 — it exposes
// salts, iteration counts, clear grid identifiers and digests, but no
// click-points.
package vault

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"clickpass/internal/canonjson"
	"clickpass/internal/passpoints"
)

// ErrNotFound is returned when a user has no record.
var ErrNotFound = fmt.Errorf("vault: user not found")

// ErrExists is returned when creating a record for an existing user.
var ErrExists = fmt.Errorf("vault: user already exists")

// loadRecords reads and validates a vault file: well-formed JSON, every
// record carries a user, no user appears twice. A missing file is an
// empty vault, not an error. Shared by every Store implementation so
// the validation rules cannot drift between backends.
func loadRecords(path string) ([]passpoints.Packed, error) {
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

// ParseRecords decodes a vault file's contents into packed records,
// enforcing the format invariants (records must name distinct,
// non-empty users). Exposed so fuzzing and external tools can exercise
// exactly the parser the stores use.
func ParseRecords(data []byte) ([]passpoints.Packed, error) {
	var recs []passpoints.Packed
	if err := canonjson.Unmarshal(data, &recs, readSnapshot); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	seen := make(map[string]bool, len(recs))
	for _, p := range recs {
		if p.IsZero() {
			return nil, fmt.Errorf("contains a null record")
		}
		user := p.User()
		if user == "" {
			return nil, fmt.Errorf("contains a record without a user")
		}
		if seen[user] {
			return nil, fmt.Errorf("contains duplicate user %q", user)
		}
		seen[user] = true
	}
	return recs, nil
}

// readSnapshot reads a snapshot file without reflection, straight into
// packed records: the JSON array of records writeRecords produces.
func readSnapshot(r *canonjson.Reader, recs *[]passpoints.Packed) {
	*recs = canonjson.Slice(r, passpoints.ReadPacked)
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
