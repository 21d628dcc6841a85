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
// and all three Store backends must agree byte-for-byte on what is a
// valid password file — Vault and Sharded load it directly, Durable
// through its ImportJSON migration path. Accepted input additionally
// round-trips through the durable backend's append log: every
// imported record is re-encoded as a WAL entry, replayed on reopen,
// and must come back identical. Seeds cover the failure classes the
// format rejects by contract: duplicate users, records without a
// user, and truncated JSON.
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
		v, vErr := Open(path)
		s, sErr := OpenSharded(path, 4)
		if (vErr == nil) != (sErr == nil) {
			t.Fatalf("backends disagree: Open err=%v, OpenSharded err=%v", vErr, sErr)
		}
		d, dOpenErr := OpenDurable(filepath.Join(dir, "wal"), DurableOptions{Shards: 3, Sync: SyncNever, NoAutoCompact: true})
		if dOpenErr != nil {
			t.Fatal(dOpenErr)
		}
		defer func() { d.Close() }() // d is rebound on reopen below
		dErr := d.ImportJSON(path)
		if (vErr == nil) != (dErr == nil) {
			t.Fatalf("backends disagree: Open err=%v, ImportJSON err=%v", vErr, dErr)
		}
		if vErr != nil {
			return
		}
		// Accepted input: both stores must hold the same records, and the
		// parsed state must survive a save/reload cycle.
		if v.Len() != s.Len() || v.Len() != d.Len() {
			t.Fatalf("backends loaded different counts: %d vs %d vs %d", v.Len(), s.Len(), d.Len())
		}
		// The imported records must also survive a WAL replay: reopen
		// the log directory and compare against the other backends.
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, dOpenErr = OpenDurable(filepath.Join(dir, "wal"), DurableOptions{Shards: 3, Sync: SyncNever, NoAutoCompact: true})
		if dOpenErr != nil {
			t.Fatalf("reopening WAL written from accepted input: %v", dOpenErr)
		}
		vUsers, sUsers, dUsers := v.Users(), s.Users(), d.Users()
		for i := range vUsers {
			if vUsers[i] != sUsers[i] || vUsers[i] != dUsers[i] {
				t.Fatalf("backends loaded different users: %v vs %v vs %v", vUsers, sUsers, dUsers)
			}
			vr, _ := v.Get(vUsers[i])
			sr, _ := s.Get(vUsers[i])
			dr, _ := d.Get(vUsers[i])
			vb, _ := json.Marshal(vr)
			sb, _ := json.Marshal(sr)
			db, _ := json.Marshal(dr)
			if string(vb) != string(sb) || string(vb) != string(db) {
				t.Fatalf("user %q differs across backends", vUsers[i])
			}
		}
		out := filepath.Join(dir, "resaved.json")
		if err := v.SaveTo(out); err != nil {
			t.Fatalf("SaveTo after accepting input: %v", err)
		}
		if _, err := Open(out); err != nil {
			t.Fatalf("accepted input did not round-trip: %v", err)
		}
	})
}
