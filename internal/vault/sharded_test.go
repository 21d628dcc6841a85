package vault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
)

// storeImpl is one Store implementation under conformance test.
// persistent marks backends whose in-memory form still has real
// backing storage (Save must succeed rather than fail).
type storeImpl struct {
	name       string
	mk         func(tb testing.TB) Store
	persistent bool
}

// storeImpls enumerates every Store implementation so the conformance
// tests below run identically over all of them; a new backend only
// has to add a row here.
func storeImpls() []storeImpl {
	return []storeImpl{
		{"sharded", func(testing.TB) Store { return NewSharded(8) }, false},
		// Degenerate single-shard stores must still be correct.
		{"sharded1", func(testing.TB) Store { return NewSharded(1) }, false},
		{"durable", func(tb testing.TB) Store { return openDurableT(tb, DurableOptions{Shards: 8}) }, true},
		{"durable1", func(tb testing.TB) Store { return openDurableT(tb, DurableOptions{Shards: 1}) }, true},
	}
}

// openDurableT opens a Durable store in a fresh temp dir and closes it
// when the test ends.
func openDurableT(tb testing.TB, opts DurableOptions) *Durable {
	tb.Helper()
	d, err := OpenDurable(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	return d
}

// TestStoreConformance runs the Store contract over every
// implementation: Put/Get/Replace/Delete semantics, sorted iteration,
// and the sentinel errors callers branch on.
func TestStoreConformance(t *testing.T) {
	for _, impl := range storeImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk(t)
			if s.Len() != 0 || len(s.Users()) != 0 || len(s.All()) != 0 {
				t.Fatal("fresh store not empty")
			}
			if _, err := s.Get("nobody"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty store = %v, want ErrNotFound", err)
			}
			if err := s.Put(nil); err == nil {
				t.Error("nil record accepted")
			}
			if err := s.Put(&passpoints.Record{}); err == nil {
				t.Error("record without user accepted")
			}
			if err := s.Replace(nil); err == nil {
				t.Error("Replace nil accepted")
			}

			for _, u := range []string{"zoe", "alice", "mike"} {
				if err := s.Put(testRecord(t, u)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Put(testRecord(t, "alice")); !errors.Is(err, ErrExists) {
				t.Errorf("duplicate Put = %v, want ErrExists", err)
			}
			if s.Len() != 3 {
				t.Errorf("Len = %d, want 3", s.Len())
			}
			want := []string{"alice", "mike", "zoe"}
			users := s.Users()
			all := s.All()
			if len(users) != len(want) || len(all) != len(want) {
				t.Fatalf("Users = %v, All len = %d", users, len(all))
			}
			for i := range want {
				if users[i] != want[i] || all[i].User != want[i] {
					t.Fatalf("iteration not sorted: Users = %v", users)
				}
			}

			r2 := testRecord(t, "alice")
			if err := s.Replace(r2); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("alice")
			if err != nil || string(got.Salt) != string(r2.Salt) {
				t.Error("Replace did not overwrite")
			}

			s.Delete("alice")
			if _, err := s.Get("alice"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get after delete = %v, want ErrNotFound", err)
			}
			s.Delete("alice") // idempotent
			if s.Len() != 2 {
				t.Errorf("Len after delete = %d, want 2", s.Len())
			}

			if err := s.SaveTo(filepath.Join(t.TempDir(), "out.json")); err != nil {
				t.Errorf("SaveTo: %v", err)
			}
		})
	}
}

// TestStoreInMemorySaveFails: Save without a backing file must fail —
// except on persistent backends (Durable), whose logs are the backing
// file, so Save reduces to a flush and must succeed.
func TestStoreInMemorySaveFails(t *testing.T) {
	for _, impl := range storeImpls() {
		err := impl.mk(t).Save()
		if impl.persistent && err != nil {
			t.Errorf("%s: Save on persistent store failed: %v", impl.name, err)
		}
		if !impl.persistent && err == nil {
			t.Errorf("%s: Save on in-memory store should fail", impl.name)
		}
	}
}

// TestShardedFileInterop: the snapshot file does not depend on the
// shard count — a file saved at one count must load at another and
// save back byte-identically.
func TestShardedFileInterop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vault.json")

	sh, err := OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Len() != 0 {
		t.Fatal("fresh sharded store not empty")
	}
	for i := 0; i < 20; i++ {
		if err := sh.Put(testRecord(t, fmt.Sprintf("user-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Save(); err != nil {
		t.Fatal(err)
	}

	// Reload with a different shard count.
	back, err := OpenSharded(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 20 {
		t.Fatalf("sharded reloaded %d records, want 20", back.Len())
	}
	rec, err := back.Get("user-07")
	if err != nil || rec.Kind != passpoints.KindCentered {
		t.Fatalf("round-trip mangled record: %v %v", rec, err)
	}
	// Canonical encoding: saving the reloaded store must reproduce the
	// file byte-for-byte regardless of shard count.
	path2 := filepath.Join(dir, "again.json")
	if err := back.SaveTo(path2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("save is not canonical across shard counts")
	}
}

// TestOpenShardedRejectsCorruptFiles: the loader must refuse every
// file that breaks the snapshot format's rules.
func TestOpenShardedRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage":    "not json at all",
		"no user":    `[{"kind":"centered","square_side_px":13}]`,
		"dup user":   `[{"user":"a","square_side_px":13},{"user":"a","square_side_px":13}]`,
		"null rec":   `[null]`,
		"truncated":  `[{"user":"a","square_side_px":13}`,
		"wrong type": `{"user":"a"}`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(path, 4); err == nil {
			t.Errorf("%s: OpenSharded accepted corrupt file", name)
		}
	}
}

// TestShardedDistribution: users must actually spread across shards —
// a broken hash that funnels everything into one shard would still
// pass the functional tests but serialize all traffic.
func TestShardedDistribution(t *testing.T) {
	s := NewSharded(8)
	for i := 0; i < 256; i++ {
		if err := s.Put(testRecord(t, fmt.Sprintf("user-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	occupied := 0
	for i := range s.shards {
		if len(s.shards[i].records) > 0 {
			occupied++
		}
	}
	if occupied < len(s.shards)/2 {
		t.Errorf("256 users landed in only %d/%d shards", occupied, len(s.shards))
	}
	if s.Shards() != 8 {
		t.Errorf("Shards() = %d", s.Shards())
	}
}

// TestShardedSnapshotCompact: Snapshot returns every record (order
// unspecified), and Save rewrites the backing file from the current
// state, so records deleted since the last save are gone from it.
func TestShardedSnapshotCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vault.json")
	s, err := OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"c", "a", "b"} {
		if err := s.Put(testRecord(t, u)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot returned %d records, want 3", len(snap))
	}
	seen := map[string]bool{}
	for _, r := range snap {
		seen[r.User] = true
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Errorf("Snapshot missing users: %v", seen)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	s.Delete("b")
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSharded(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if users := back.Users(); len(users) != 2 || users[0] != "a" || users[1] != "c" {
		t.Errorf("rewritten file holds %v, want [a c]", users)
	}
}

// TestShardedConcurrentStress hammers every operation class across
// shards from many goroutines — create/get/delete/save plus the
// cross-shard snapshots — and is the test the -race CI lane leans on
// for the sharded store.
func TestShardedConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(filepath.Join(dir, "stress.json"), 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t, "seed")
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 16
		iters   = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Records are immutable once stored, so sharing one across
			// writers is safe; each worker owns a distinct user name.
			mine := *rec
			mine.User = fmt.Sprintf("w%d", w)
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					_ = s.Replace(&mine)
				case 1:
					_, _ = s.Get(mine.User)
					_, _ = s.Get("seed")
				case 2:
					_ = s.Len()
					_ = len(s.Snapshot())
				case 3:
					if w%4 == 0 {
						// Save concurrently with writers: must not race and
						// must write some consistent snapshot.
						if err := s.SaveTo(filepath.Join(dir, fmt.Sprintf("snap-%d.json", w))); err != nil {
							t.Error(err)
						}
					} else {
						_ = s.Users()
					}
				case 4:
					s.Delete(mine.User)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := s.Get("seed"); err != nil {
		t.Errorf("seed record lost during stress: %v", err)
	}
	// Every snapshot file written mid-stress must parse as a valid
	// vault (atomicity: readers never observe a partial write).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, err := OpenSharded(filepath.Join(dir, e.Name()), 0); err != nil {
			t.Errorf("stress snapshot %s unreadable: %v", e.Name(), err)
		}
	}
}

// enrolledRecords enrolls n records as servebench's are (centered/13,
// five clicks on a 451x331 image; fewer hash iterations, which do not
// change a record's size).
func enrolledRecords(tb testing.TB, n int) []*passpoints.Record {
	tb.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := passpoints.Config{Image: geom.Size{W: 451, H: 331}, Clicks: passpoints.DefaultClicks, Scheme: scheme, Iterations: 2}
	rng := rand.New(rand.NewPCG(1, 2))
	clicks := make([]geom.Point, cfg.Clicks)
	recs := make([]*passpoints.Record, n)
	for i := range recs {
		for j := range clicks {
			clicks[j] = geom.Pt(rng.IntN(cfg.Image.W), rng.IntN(cfg.Image.H))
		}
		if recs[i], err = passpoints.Enroll(cfg, fmt.Sprintf("u%d", i), clicks); err != nil {
			tb.Fatal(err)
		}
	}
	return recs
}

// TestRecordHeapBounded: a loaded account costs at most 210 B of live
// heap on either backend. 10,000 enrolled records are saved to a
// snapshot, which Sharded reopens and Durable imports, closes and
// reopens by replaying its logs; two GCs on either side of each open
// count only what the store holds.
func TestRecordHeapBounded(t *testing.T) {
	const n = 10000
	src := NewSharded(0)
	for _, rec := range enrolledRecords(t, n) {
		if err := src.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path, logs := filepath.Join(dir, "vault.json"), filepath.Join(dir, "wal")
	if err := src.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(logs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ImportJSON(path); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		open func() (Store, error)
	}{
		{"sharded", func() (Store, error) { return OpenSharded(path, 0) }},
		{"durable", func() (Store, error) { return OpenDurable(logs, DurableOptions{}) }},
	} {
		before := liveHeap()
		s, err := b.open()
		if err != nil {
			t.Fatal(err)
		}
		perRecord := float64(liveHeap()-before) / n
		if s.Len() != n {
			t.Fatalf("%s: opened %d records, want %d", b.name, s.Len(), n)
		}
		t.Logf("%s: %.1f bytes of live heap per record", b.name, perRecord)
		if perRecord > 210 {
			t.Errorf("%s holds %.1f bytes of live heap per record, want at most 210", b.name, perRecord)
		}
		if d, ok := s.(*Durable); ok {
			d.Close()
		}
	}
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
