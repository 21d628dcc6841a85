package vault

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clickpass/internal/passpoints"
)

// reopen closes d and opens the same directory again with the same
// options — the clean-restart path every recovery test leans on.
func reopen(t *testing.T, d *Durable) *Durable {
	t.Helper()
	dir, opts := d.Dir(), d.opts
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	return back
}

// TestDurableReopen: every mutation class — put, replace, delete,
// lockout set and clear — must survive a close/reopen cycle.
func TestDurableReopen(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			d := openDurableT(t, DurableOptions{Shards: 4, Sync: policy})
			for i := 0; i < 20; i++ {
				if err := d.Put(testRecord(t, fmt.Sprintf("u-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			repl := testRecord(t, "u-3")
			if err := d.Replace(repl); err != nil {
				t.Fatal(err)
			}
			d.Delete("u-7")
			if err := d.SetLockout("u-1", 4); err != nil {
				t.Fatal(err)
			}
			if err := d.SetLockout("u-2", 9); err != nil {
				t.Fatal(err)
			}
			if err := d.SetLockout("u-2", 0); err != nil { // cleared
				t.Fatal(err)
			}

			back := reopen(t, d)
			if back.Len() != 19 {
				t.Fatalf("reopened Len = %d, want 19", back.Len())
			}
			if _, err := back.Get("u-7"); !errors.Is(err, ErrNotFound) {
				t.Errorf("deleted user resurrected: %v", err)
			}
			got, err := back.Get("u-3")
			if err != nil || string(got.Salt) != string(repl.Salt) {
				t.Errorf("replace lost on reopen: %v %v", got, err)
			}
			locks := back.Lockouts()
			if len(locks) != 1 || locks["u-1"] != 4 {
				t.Errorf("lockouts after reopen = %v, want map[u-1:4]", locks)
			}
		})
	}
}

// TestDurableJSONInterop: SaveTo must emit the canonical snapshot the
// other backends read, and ImportJSON must load one — byte-identical
// round trips in both directions.
func TestDurableJSONInterop(t *testing.T) {
	dir := t.TempDir()
	d := openDurableT(t, DurableOptions{Shards: 4})
	for i := 0; i < 12; i++ {
		if err := d.Put(testRecord(t, fmt.Sprintf("user-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := filepath.Join(dir, "snap.json")
	if err := d.SaveTo(snap); err != nil {
		t.Fatal(err)
	}
	v, err := OpenSharded(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 12 {
		t.Fatalf("sharded store read %d records from durable snapshot, want 12", v.Len())
	}

	// JSON -> durable (the pwserver migration path), and back out:
	// the canonical encoding must be reproduced byte for byte.
	d2 := openDurableT(t, DurableOptions{Shards: 7})
	if err := d2.ImportJSON(snap); err != nil {
		t.Fatal(err)
	}
	if err := d2.ImportJSON(snap); err == nil {
		t.Error("ImportJSON into non-empty store should fail")
	}
	out := filepath.Join(dir, "out.json")
	if err := d2.SaveTo(out); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("durable snapshot is not canonical across backends")
	}
	// Importing a missing file is an empty store, like Open.
	d3 := openDurableT(t, DurableOptions{Shards: 2})
	if err := d3.ImportJSON(filepath.Join(dir, "nope.json")); err != nil {
		t.Errorf("ImportJSON of missing file: %v", err)
	}
}

// TestDurableRefusesUndecodableEntry: an entry whose checksum holds
// but whose payload does not decode is a format this release refuses,
// not a torn write. Here an earlier release logged a record with a
// 33-bit iteration count, then an ordinary one. Opening must return
// both records or an error, never fewer records, and must leave the
// log byte-identical.
func TestDurableRefusesUndecodableEntry(t *testing.T) {
	opts := DurableOptions{Shards: 1, Sync: SyncAlways}
	d := openDurableT(t, opts)
	dir := d.Dir()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(walEntry{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("wide", 1))})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(payload, []byte(`"iterations":2,`)) != 1 {
		t.Fatalf("no iteration count to widen in %s", payload)
	}
	payload = bytes.Replace(payload, []byte(`"iterations":2,`), []byte(`"iterations":4294967296,`), 1)
	wal := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	wal = binary.LittleEndian.AppendUint32(wal, crc32.ChecksumIEEE(payload))
	wal = append(wal, payload...)
	next := appendFrame(nil, &walEntry{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("narrow", 1))})
	wal = append(wal, next...)
	path := filepath.Join(dir, shardLogName(0))
	if err := os.WriteFile(path, wal, 0o600); err != nil {
		t.Fatal(err)
	}

	back, err := OpenDurable(dir, opts)
	if err == nil {
		defer back.Close()
		if back.Len() != 2 {
			t.Errorf("opened with %d of the log's 2 records", back.Len())
		}
	} else {
		t.Logf("open refused: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wal) {
		t.Errorf("open rewrote the log: %d bytes, was %d (%v)", len(got), len(wal), err)
	}
}

// TestDurableCompaction: churn must shrink under Compact without
// losing live state, and the compacted log must replay.
func TestDurableCompaction(t *testing.T) {
	d := openDurableT(t, DurableOptions{Shards: 1, NoAutoCompact: true})
	rec := testRecord(t, "churn")
	if err := d.Put(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := d.Replace(rec); err != nil {
			t.Fatal(err)
		}
		if err := d.SetLockout("locked", 1+i%9); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(d.Dir(), shardLogName(0))
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size()/10 {
		t.Errorf("compaction barely shrank the log: %d -> %d bytes", before.Size(), after.Size())
	}
	// The store must stay fully usable after the file swap...
	if err := d.Put(testRecord(t, "after-compact")); err != nil {
		t.Fatal(err)
	}
	// ...and the compacted+appended log must replay.
	back := reopen(t, d)
	if back.Len() != 2 {
		t.Errorf("post-compaction reopen Len = %d, want 2", back.Len())
	}
	if locks := back.Lockouts(); locks["locked"] == 0 {
		t.Errorf("lockout counter lost in compaction: %v", locks)
	}
}

// TestEncodeStateSizesFromEveryEntry: the frame buffer compaction and
// a bootstrap snapshot encode into is exactly as long as its frames,
// whatever the shard's records look like. The state mixes 200 small
// records with every packed shape (300 clears, escaped and non-ASCII
// names, an unknown kind) and one record whose 64 KiB name sorts
// first, so no single record's frame can stand for the others; the
// frames must equal those of each entry framed in turn.
func TestEncodeStateSizesFromEveryEntry(t *testing.T) {
	recs := append(packedShapes(t), versionedRecord("!"+strings.Repeat("x", 64<<10), 0))
	for i := range 200 {
		recs = append(recs, versionedRecord(fmt.Sprintf("u%03d", i), i))
	}
	records := make(map[string]passpoints.Packed)
	for _, rec := range recs {
		records[rec.User] = passpoints.Pack(rec)
	}
	lockouts := map[string]int{"u007": 3, "ghost": 1}
	kv := map[string][]byte{"session/key/1": []byte("k1"), "big": bytes.Repeat([]byte{0xff}, 4096)}
	frames, n := encodeState(records, lockouts, kv)
	if cap(frames) != len(frames) {
		t.Errorf("frame buffer cap %d for %d bytes of frames, want them equal", cap(frames), len(frames))
	}
	var want []byte
	for _, user := range slices.Sorted(maps.Keys(records)) {
		want = appendFrame(want, &walEntry{Op: walOpPut, Rec: records[user]})
	}
	want = appendFrame(want, &walEntry{Op: walOpLock, User: "ghost", Failures: 1})
	want = appendFrame(want, &walEntry{Op: walOpLock, User: "u007", Failures: 3})
	want = appendFrame(want, &walEntry{Op: walOpKV, Key: "big", Val: kv["big"]})
	want = appendFrame(want, &walEntry{Op: walOpKV, Key: "session/key/1", Val: kv["session/key/1"]})
	if !bytes.Equal(frames, want) {
		t.Errorf("encodeState frames differ from the entries framed one by one (%d bytes, want %d)", len(frames), len(want))
	}
	if want := len(records) + len(lockouts) + len(kv); n != want {
		t.Errorf("entry count %d, want %d", n, want)
	}
}

// TestDurableAutoCompact: churn past the default garbage ratio must
// trigger the background compactor on its own. The compactor runs
// concurrently with the writer, so the test watches for the telltale
// a log rewrite leaves — the file getting *smaller* between two
// measurements — rather than a final size (the writer keeps regrowing
// the log after each rewrite).
func TestDurableAutoCompact(t *testing.T) {
	d := openDurableT(t, DurableOptions{Shards: 1})
	rec := testRecord(t, "churn")
	if err := d.Put(rec); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(d.Dir(), shardLogName(0))
	prev := int64(0)
	deadline := time.Now().Add(10 * time.Second)
	for shrunk := false; !shrunk; {
		for i := 0; i < 64; i++ {
			if err := d.Replace(rec); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond) // let a pending kick run
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() < prev {
			shrunk = true // only a compaction rewrite shrinks the log
		}
		prev = st.Size()
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never rewrote the log (grew to %d bytes)", prev)
		}
	}
	if _, err := d.Get("churn"); err != nil {
		t.Errorf("record lost to auto-compaction: %v", err)
	}
}

// TestDurableShardCountPinned: the shard count is fixed at directory
// creation (meta.json); reopening with a different request keeps the
// on-disk partitioning — a record's log is hash mod Shards, so
// honoring a new modulus would strand records — and loses nothing.
func TestDurableShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := d.Put(testRecord(t, fmt.Sprintf("u-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SetLockout("u-11", 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, request := range []int{2, 16} {
		back, err := OpenDurable(dir, DurableOptions{Shards: request})
		if err != nil {
			t.Fatal(err)
		}
		if back.Shards() != 8 {
			t.Errorf("requested %d shards, got %d, want the pinned 8", request, back.Shards())
		}
		if back.Len() != 40 {
			t.Fatalf("reopen with %d requested shards: Len = %d, want 40", request, back.Len())
		}
		for i := 0; i < 40; i++ {
			if _, err := back.Get(fmt.Sprintf("u-%d", i)); err != nil {
				t.Errorf("u-%d lost: %v", i, err)
			}
		}
		if locks := back.Lockouts(); locks["u-11"] != 3 {
			t.Errorf("lockout lost: %v", locks)
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A directory with logs but no meta.json must be refused, not
	// silently re-partitioned.
	if err := os.Remove(filepath.Join(dir, "meta.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, DurableOptions{Shards: 8}); err == nil {
		t.Error("OpenDurable accepted a log directory without meta.json")
	}
}

// TestDurableClosedStoreRefusesWrites pins the Close contract.
func TestDurableClosedStoreRefusesWrites(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := d.Put(testRecord(t, "late")); err == nil {
		t.Error("Put on closed store should fail")
	}
	if err := d.SetLockout("late", 1); err == nil {
		t.Error("SetLockout on closed store should fail")
	}
}

// TestSetLockoutSkipsAbsentClear: clearing a counter the shard does not
// hold appends nothing, as deleting an absent record or side-table key
// does, while clearing a held counter still appends and survives
// reopen. A closed or fail-stopped store still refuses the clear.
func TestSetLockoutSkipsAbsentClear(t *testing.T) {
	d := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	for i := 0; i < 3; i++ {
		if err := d.SetLockout("nobody", 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := logBytes(t, d); n != 0 {
		t.Fatalf("three clears of an absent counter wrote %d log bytes, want 0", n)
	}
	for user, n := range map[string]int{"alice": 2, "bob": 3} {
		if err := d.SetLockout(user, n); err != nil {
			t.Fatal(err)
		}
	}
	held := logBytes(t, d)
	if err := d.SetLockout("alice", 0); err != nil {
		t.Fatal(err)
	}
	if n := logBytes(t, d); n <= held {
		t.Fatalf("clearing a held counter left the log at %d bytes, want more than %d", n, held)
	}
	back := reopen(t, d)
	if got := back.Lockouts(); !reflect.DeepEqual(got, map[string]int{"bob": 3}) {
		t.Fatalf("lockouts after reopen = %v, want only bob's", got)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	if err := back.SetLockout("nobody", 0); !errors.Is(err, errClosed) {
		t.Errorf("clear on a closed store = %v, want %v", err, errClosed)
	}

	ctl := &faultCtl{syncErr: failAfter(1, errors.New("injected fsync failure"))}
	f := openFaulty(t, t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}, ctl)
	if err := f.SetLockout("alice", 1); err == nil {
		t.Fatal("write over an injected fsync failure acked")
	}
	if err := f.SetLockout("nobody", 0); !errors.Is(err, ErrShardFailed) {
		t.Errorf("clear on a fail-stopped shard = %v, want ErrShardFailed", err)
	}
}

// TestParseSyncPolicy covers the flag round trip.
func TestParseSyncPolicy(t *testing.T) {
	for _, want := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParseSyncPolicy(want.String())
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestDurableConcurrentStress is the -race lane's coverage for the
// log-backed store: concurrent puts, replaces, deletes, lockout
// writes, reads, snapshots, JSON exports, and manual compactions.
func TestDurableConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	d := openDurableT(t, DurableOptions{Shards: 8, Sync: SyncNever})
	rec := testRecord(t, "seed")
	if err := d.Put(rec); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 16
		iters   = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := *rec
			mine.User = fmt.Sprintf("w%d", w)
			for i := 0; i < iters; i++ {
				switch i % 6 {
				case 0:
					_ = d.Replace(&mine)
				case 1:
					_, _ = d.Get(mine.User)
					_, _ = d.Get("seed")
				case 2:
					_ = d.Len()
					_ = len(d.Snapshot())
					_ = d.Lockouts()
				case 3:
					if w%4 == 0 {
						if err := d.SaveTo(filepath.Join(dir, fmt.Sprintf("snap-%d.json", w))); err != nil {
							t.Error(err)
						}
					} else {
						_ = d.SetLockout(mine.User, i)
					}
				case 4:
					d.Delete(mine.User)
				case 5:
					if w == 0 {
						if err := d.CompactShard(i % d.Shards()); err != nil {
							t.Error(err)
						}
					} else {
						_ = d.Save()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := d.Get("seed"); err != nil {
		t.Errorf("seed record lost during stress: %v", err)
	}
	// After the dust settles the log must still replay to exactly the
	// live state.
	want := map[string]bool{}
	for _, u := range d.Users() {
		want[u] = true
	}
	back := reopen(t, d)
	if back.Len() != len(want) {
		t.Errorf("replay Len = %d, want %d", back.Len(), len(want))
	}
	for u := range want {
		if _, err := back.Get(u); err != nil {
			t.Errorf("user %s lost in replay: %v", u, err)
		}
	}
}
