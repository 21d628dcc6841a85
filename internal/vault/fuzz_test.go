package vault

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// openSeeds are FuzzOpen's seeds, shared with FuzzCanonicalDecode.
var openSeeds = [][]byte{
	[]byte(`[]`),
	[]byte(`[{"user":"a","kind":"centered","square_side_px":13}]`),
	// Duplicate users.
	[]byte(`[{"user":"a"},{"user":"a"}]`),
	// Empty user.
	[]byte(`[{"user":""}]`),
	[]byte(`[{"kind":"centered"}]`),
	// Truncated file (mid-record and mid-array).
	[]byte(`[{"user":"a","kind":"cente`),
	[]byte(`[{"user":"a"},`),
	// Null record, wrong top-level type, junk.
	[]byte(`[null]`),
	[]byte(`{"user":"a"}`),
	[]byte(`not json at all`),
	{0xff, 0xfe, 0x00},
}

// FuzzOpen: arbitrary vault-file bytes must never panic the loaders,
// and both Store backends must agree byte-for-byte on what is a valid
// password file — Sharded loads it directly, Durable through its
// ImportJSON migration path. Accepted input additionally round-trips
// through the durable backend's append log (every imported record is
// re-encoded as a WAL entry, replayed on reopen, and must come back
// identical) and through SaveTo (the resaved file must load again).
// Seeds cover the failure classes the format rejects by contract:
// duplicate users, records without a user, and truncated JSON.
func FuzzOpen(f *testing.F) {
	for _, seed := range openSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "vault.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, sErr := OpenSharded(path, 4)
		d, dOpenErr := OpenDurable(filepath.Join(dir, "wal"), DurableOptions{Shards: 3, Sync: SyncNever, NoAutoCompact: true})
		if dOpenErr != nil {
			t.Fatal(dOpenErr)
		}
		defer func() { d.Close() }() // d is rebound on reopen below
		dErr := d.ImportJSON(path)
		if (sErr == nil) != (dErr == nil) {
			t.Fatalf("backends disagree: OpenSharded err=%v, ImportJSON err=%v", sErr, dErr)
		}
		if sErr != nil {
			return
		}
		// Accepted input: both stores must hold the same records, and the
		// parsed state must survive a WAL replay and a save/reload cycle.
		if s.Len() != d.Len() {
			t.Fatalf("backends loaded different counts: %d vs %d", s.Len(), d.Len())
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, dOpenErr = OpenDurable(filepath.Join(dir, "wal"), DurableOptions{Shards: 3, Sync: SyncNever, NoAutoCompact: true})
		if dOpenErr != nil {
			t.Fatalf("reopening WAL written from accepted input: %v", dOpenErr)
		}
		sUsers, dUsers := s.Users(), d.Users()
		if len(sUsers) != len(dUsers) {
			t.Fatalf("replayed WAL holds %d users, sharded store %d", len(dUsers), len(sUsers))
		}
		for i := range sUsers {
			if sUsers[i] != dUsers[i] {
				t.Fatalf("backends loaded different users: %v vs %v", sUsers, dUsers)
			}
			sr, _ := s.Get(sUsers[i])
			dr, _ := d.Get(sUsers[i])
			sb, _ := json.Marshal(sr)
			db, _ := json.Marshal(dr)
			if string(sb) != string(db) {
				t.Fatalf("user %q differs across backends", sUsers[i])
			}
		}
		out := filepath.Join(dir, "resaved.json")
		if err := s.SaveTo(out); err != nil {
			t.Fatalf("SaveTo after accepting input: %v", err)
		}
		if _, err := OpenSharded(out, 0); err != nil {
			t.Fatalf("accepted input did not round-trip: %v", err)
		}
	})
}
