package vault

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clickpass/internal/passpoints"
)

// ckptOps drives a deterministic mutation history — puts, replaces,
// deletes, lockout sets and clears — against d. from/to bound the
// versions so the same history can be split across a compaction.
func ckptOps(t *testing.T, d *Durable, from, to int) {
	t.Helper()
	for v := from; v < to; v++ {
		user := fmt.Sprintf("user-%02d", v%13)
		if err := d.Replace(versionedRecord(user, v)); err != nil {
			t.Fatal(err)
		}
		switch v % 7 {
		case 2:
			if err := d.SetLockout(user, v%5+1); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := d.SetLockout(user, 0); err != nil {
				t.Fatal(err)
			}
		case 5:
			d.Delete(fmt.Sprintf("user-%02d", (v+1)%13))
		}
	}
}

// saveBytes exports d's canonical JSON snapshot and returns its bytes.
func saveBytes(t *testing.T, d *Durable) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := d.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// logBytes returns the total size of d's shard logs.
func logBytes(t *testing.T, d *Durable) int64 {
	t.Helper()
	var n int64
	for i := range d.shards {
		st, err := os.Stat(filepath.Join(d.Dir(), shardLogName(i)))
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// TestCheckpointEquivalence: recovering a compacted log plus the tail
// appended after the compaction must reproduce the state of both the
// live store it rewrote and a control store that replayed the same
// history from a never-rewritten log.
func TestCheckpointEquivalence(t *testing.T) {
	opts := DurableOptions{Shards: 4, Sync: SyncNever, NoAutoCompact: true}
	d := openDurableT(t, opts)
	control := openDurableT(t, opts)

	ckptOps(t, d, 0, 120)
	ckptOps(t, control, 0, 120)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	ckptOps(t, d, 120, 160)
	ckptOps(t, control, 120, 160)

	// The compaction actually happened: the rewritten logs hold less
	// than the control's full history.
	if got, full := logBytes(t, d), logBytes(t, control); got >= full {
		t.Fatalf("compacted logs hold %d bytes, the never-rewritten control %d", got, full)
	}

	live, liveLocks := saveBytes(t, d), d.Lockouts()
	back := reopen(t, d)
	if got := saveBytes(t, back); string(got) != string(live) {
		t.Error("compacted-log recovery diverged from the live state it rewrote")
	}
	if got := saveBytes(t, control); string(got) != string(live) {
		t.Error("compacted store diverged from full-log control replaying the same history")
	}
	if locks := back.Lockouts(); !reflect.DeepEqual(locks, liveLocks) || !reflect.DeepEqual(locks, control.Lockouts()) {
		t.Errorf("recovered lockouts %v, live %v, control %v", locks, liveLocks, control.Lockouts())
	}
}

// TestCheckpointBoundsReplay: startup replay after a compaction is the
// live set, independent of how much history came before — the point
// of rewriting the log. Histories 10x apart must replay exactly their
// live entries.
func TestCheckpointBoundsReplay(t *testing.T) {
	for _, history := range []int{60, 600} {
		d := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncNever, NoAutoCompact: true})
		ckptOps(t, d, 0, history)
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		sh := &reopen(t, d).logs[0]
		if sh.entries != sh.live() {
			t.Errorf("%d-op history: replayed %d entries after a compaction, want the %d live ones", history, sh.entries, sh.live())
		}
	}
}

// TestCheckpointCrashWindows copies the store directory at the
// compaction's crash point — via the test hook after the rewritten log
// is fsynced in its temp file and before the rename commits it — and
// proves the copy reopens to the full pre-crash state and removes the
// stranded temp file.
func TestCheckpointCrashWindows(t *testing.T) {
	t.Run("before-compact-rename", func(t *testing.T) {
		opts := DurableOptions{Shards: 1, Sync: SyncNever, NoAutoCompact: true}
		d := openDurableT(t, opts)
		ckptOps(t, d, 0, 80)
		want, wantLocks := saveBytes(t, d), d.Lockouts()
		crash := t.TempDir()
		d.testCrashBeforeCompactRename = func(int) { copyDir(t, d.Dir(), crash) }
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		stranded, err := filepath.Glob(filepath.Join(crash, ".compact-*"))
		if err != nil || len(stranded) != 1 {
			t.Fatalf("crash copy holds compaction temp files %v (err %v), want one", stranded, err)
		}
		back, err := OpenDurable(crash, opts)
		if err != nil {
			t.Fatalf("reopening the compact-crash copy: %v", err)
		}
		defer back.Close()
		if got := saveBytes(t, back); string(got) != string(want) {
			t.Error("crash before the compacted log's rename lost state")
		}
		if got := back.Lockouts(); !reflect.DeepEqual(got, wantLocks) {
			t.Errorf("crash copy lockouts %v, want %v", got, wantLocks)
		}
		if _, err := os.Stat(stranded[0]); !os.IsNotExist(err) {
			t.Errorf("stranded compaction temp file not removed at open (err %v)", err)
		}
	})
}

// writeParentDir lays out a one-shard directory the way an earlier
// release wrote it: meta.json, a log of the given entries, and, when
// ckpt is non-empty, a checkpoint file holding it.
func writeParentDir(t *testing.T, ckpt string, entries ...walEntry) string {
	t.Helper()
	dir := t.TempDir()
	if err := writeMetaFile(dir, walMeta{Version: 1, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	var log []byte
	for i := range entries {
		frame := appendFrame(nil, &entries[i])
		log = append(log, frame...)
	}
	if err := os.WriteFile(filepath.Join(dir, shardLogName(0)), log, 0o600); err != nil {
		t.Fatal(err)
	}
	if ckpt != "" {
		if err := os.WriteFile(filepath.Join(dir, "shard-0000.ckpt"), []byte(ckpt), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// dirContents maps every file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestFullMarkerLogReplays: a log an earlier release compacted
// opens with a "full" generation marker, which replays as a no-op;
// the records behind it are the shard's state, and the log takes
// appends.
func TestFullMarkerLogReplays(t *testing.T) {
	opts := DurableOptions{Shards: 1, Sync: SyncNever, NoAutoCompact: true}
	dir := writeParentDir(t, "",
		walEntry{Op: walOpCkpt, Ckpt: 7, Full: true},
		walEntry{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("alice", 3))},
		walEntry{Op: walOpLock, User: "alice", Failures: 2},
		walEntry{Op: walOpKV, Key: "session/key", Val: []byte("k")},
	)
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("opening a parent-compacted log: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Replace(versionedRecord("alice", 4)); err != nil {
		t.Fatal(err)
	}
	back := reopen(t, d)
	rec, err := back.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if v := recordVersion(t, "full-marker", rec); v != 4 {
		t.Errorf("alice at version %d, want 4", v)
	}
	if n := back.Lockouts()["alice"]; n != 2 {
		t.Errorf("alice's lockout counter = %d, want 2", n)
	}
	if v, ok := back.GetKV("session/key"); !ok || string(v) != "k" {
		t.Errorf("session/key = %q, %v", v, ok)
	}
}

// TestCheckpointRefusesPartialState: a directory an earlier release
// left with shard state in a checkpoint file, or with a rotated log
// whose checkpoint is gone, must be refused rather than opened with
// silently missing records — and left exactly as it was.
func TestCheckpointRefusesPartialState(t *testing.T) {
	rotated := []walEntry{
		{Op: walOpCkpt, Ckpt: 7},
		{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("bob", 1))},
	}
	for _, tc := range []struct {
		name, ckpt, want string
	}{
		// The rotation marker names a checkpoint that is not there.
		{"missing-checkpoint", "", "checkpoint is missing"},
		// The checkpoint belongs to neither the log nor its lineage.
		{"lineage-mismatch", `{"version":1,"id":8,"base_log_id":9,"base_off":0,"records":[]}`, "shard-0000.ckpt"},
		// The checkpoint matches the log: an earlier release would open
		// it, but its records are unreadable here.
		{"checkpoint-file", `{"version":1,"id":7,"base_log_id":0,"base_off":0,"records":[{"user":"alice"}]}`, "shard-0000.ckpt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeParentDir(t, tc.ckpt, rotated...)
			before := dirContents(t, dir)
			d, err := OpenDurable(dir, DurableOptions{Shards: 1, Sync: SyncNever, NoAutoCompact: true})
			if err == nil {
				d.Close()
				t.Fatal("opened a directory whose state is partly in a checkpoint")
			}
			if !strings.Contains(err.Error(), "refusing") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want a refusal naming %q", err, tc.want)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Error("refused open changed the directory")
			}
		})
	}
}
