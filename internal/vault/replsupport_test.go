package vault

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestAdvanceEpochPersists: the replication epoch is monotonic
// (max-wins), durably recorded in meta.json, and survives reopen.
func TestAdvanceEpochPersists(t *testing.T) {
	d := openDurableT(t, DurableOptions{Shards: 2})
	if d.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", d.Epoch())
	}
	if got, err := d.AdvanceEpoch(5); err != nil || got != 5 {
		t.Fatalf("AdvanceEpoch(5) = %d, %v", got, err)
	}
	// Max-wins: a stale, lower epoch never rolls the fence back.
	if got, err := d.AdvanceEpoch(3); err != nil || got != 5 {
		t.Fatalf("AdvanceEpoch(3) after 5 = %d, %v; want 5 kept", got, err)
	}
	back := reopen(t, d)
	if back.Epoch() != 5 {
		t.Fatalf("epoch after reopen = %d, want 5", back.Epoch())
	}
}

// captureShip wires SetReplHooks to record shipped frame batches, the
// same byte stream a live follower would receive.
type captureShip struct {
	mu      sync.Mutex
	batches []struct {
		shard   int
		frames  []byte
		lastSeq uint64
	}
}

func (c *captureShip) hook() ReplHooks {
	return ReplHooks{Commit: func(shard int, frames []byte, lastSeq uint64) {
		cp := append([]byte(nil), frames...)
		c.mu.Lock()
		c.batches = append(c.batches, struct {
			shard   int
			frames  []byte
			lastSeq uint64
		}{shard, cp, lastSeq})
		c.mu.Unlock()
	}}
}

// TestApplyReplFramesRoundTrip: frames shipped from one store's commit
// hook replay into a second store and reproduce its state exactly —
// the in-process version of the wire path.
func TestApplyReplFramesRoundTrip(t *testing.T) {
	src := openDurableT(t, DurableOptions{Shards: 2, Sync: SyncAlways, NoAutoCompact: true})
	dst := openDurableT(t, DurableOptions{Shards: 2, Sync: SyncAlways, NoAutoCompact: true})
	var cap captureShip
	src.SetReplHooks(cap.hook())
	for i := 0; i < 10; i++ {
		if err := src.Put(versionedRecord(fmt.Sprintf("rt-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.SetLockout("rt-3", 7); err != nil {
		t.Fatal(err)
	}
	src.Delete("rt-4")
	cap.mu.Lock()
	batches := cap.batches
	cap.mu.Unlock()
	if len(batches) == 0 {
		t.Fatal("commit hook shipped nothing")
	}
	for _, b := range batches {
		if err := dst.ApplyReplFrames(b.shard, b.frames); err != nil {
			t.Fatalf("ApplyReplFrames(shard %d): %v", b.shard, err)
		}
	}
	if dst.Len() != src.Len() {
		t.Fatalf("replica has %d records, source %d", dst.Len(), src.Len())
	}
	if got := dst.Lockouts()["rt-3"]; got != 7 {
		t.Fatalf("replica lockout = %d, want 7", got)
	}
	if _, err := dst.Get("rt-4"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replica kept deleted rt-4: %v", err)
	}
	// Applied frames must be durable in the replica's own log too.
	back := reopen(t, dst)
	if back.Len() != src.Len() {
		t.Fatalf("replica lost applied frames across reopen: %d != %d", back.Len(), src.Len())
	}
}

// TestApplyReplFramesRejectsCorruption: a batch that fails validation
// — flipped byte, truncated frame, or an embedded checkpoint marker —
// is rejected atomically: no partial application, no fail-stop, and
// the clean copy of the same batch still applies afterward.
func TestApplyReplFramesRejectsCorruption(t *testing.T) {
	src := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	dst := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	var cap captureShip
	src.SetReplHooks(cap.hook())
	if err := src.Put(versionedRecord("victim", 1)); err != nil {
		t.Fatal(err)
	}
	cap.mu.Lock()
	frames := cap.batches[0].frames
	cap.mu.Unlock()

	flipped := append([]byte(nil), frames...)
	flipped[len(flipped)/2] ^= 0x40
	if err := dst.ApplyReplFrames(0, flipped); err == nil {
		t.Fatal("corrupt batch applied without error")
	}
	if err := dst.ApplyReplFrames(0, frames[:len(frames)-3]); err == nil {
		t.Fatal("truncated batch applied without error")
	}
	if dst.Len() != 0 {
		t.Fatalf("rejected batches left %d records behind", dst.Len())
	}
	// Rejection is a validation outcome, not a storage fault: the
	// shard must not fail-stop, and the clean batch still lands.
	if err := dst.ApplyReplFrames(0, frames); err != nil {
		t.Fatalf("clean batch after rejections: %v", err)
	}
	if _, err := dst.Get("victim"); err != nil {
		t.Fatalf("applied record missing: %v", err)
	}
}

// TestApplyReplFramesSyncFailureRollsBack: under SyncAlways a follower
// shard whose fsync of a replicated batch fails must refuse the batch
// and roll its entries back, exactly as a failed group commit does. A
// follower that kept serving the batch from memory would read a
// version that its log, after a restart, no longer holds.
func TestApplyReplFramesSyncFailureRollsBack(t *testing.T) {
	src := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	var cap captureShip
	src.SetReplHooks(cap.hook())
	if err := src.Put(versionedRecord("alpha", 0)); err != nil {
		t.Fatal(err)
	}
	if err := src.Replace(versionedRecord("alpha", 1)); err != nil {
		t.Fatal(err)
	}
	if err := src.SetLockout("alpha", 2); err != nil {
		t.Fatal(err)
	}
	cap.mu.Lock()
	batches := cap.batches
	cap.mu.Unlock()
	if len(batches) != 3 {
		t.Fatalf("shipped %d batches, want 3", len(batches))
	}
	// The follower's second batch fsync fails; its third batch never
	// lands, because the shard has fail-stopped.
	ctl := &faultCtl{syncErr: failAfter(2, errors.New("injected fsync failure"))}
	dst := openFaulty(t, t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}, ctl)
	if err := dst.ApplyReplFrames(0, batches[0].frames); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyReplFrames(0, batches[1].frames); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("batch over a failed fsync: got %v, want ErrShardFailed", err)
	}
	if err := dst.ApplyReplFrames(0, batches[2].frames); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("batch after a failed fsync: got %v, want ErrShardFailed", err)
	}
	check := func(where string, d *Durable) {
		t.Helper()
		rec, err := d.Get("alpha")
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if got := recordVersion(t, where, rec); got != 0 {
			t.Errorf("%s: alpha at version %d, want 0 (the failed batch was not rolled back)", where, got)
		}
		if locks := d.Lockouts(); len(locks) != 0 {
			t.Errorf("%s: lockouts %v, want none", where, locks)
		}
	}
	check("in memory", dst)
	check("after reopen", reopen(t, dst))
}

// TestReopenShardRecovers: a fail-stopped shard reopened through the
// supervised admin path serves exactly its acked state again, and a
// reopen that fails leaves the shard fail-stopped rather than
// half-open.
func TestReopenShardRecovers(t *testing.T) {
	injected := errors.New("injected fsync failure")
	ctl := &faultCtl{syncErr: failAfter(3, injected)}
	d := openFaulty(t, t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}, ctl)
	if err := d.Put(versionedRecord("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(versionedRecord("b", 1)); err != nil {
		t.Fatal(err)
	}
	// The third fsync fails: this write is refused and the shard
	// fail-stops.
	if err := d.Put(versionedRecord("c", 1)); err == nil {
		t.Fatal("write over injected fsync failure acked")
	}
	if err := d.Put(versionedRecord("d", 1)); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("post-failure write = %v, want ErrShardFailed", err)
	}
	if h := d.Health(); len(h.Failed) != 1 || h.Failed[0] != 0 {
		t.Fatalf("Health().Failed = %v, want [0]", h.Failed)
	}

	if err := d.ReopenShard(0); err != nil {
		t.Fatalf("ReopenShard: %v", err)
	}
	if h := d.Health(); len(h.Failed) != 0 {
		t.Fatalf("shard still failed after reopen: %v", h.Failed)
	}
	// The acked prefix survived; the refused write did not resurrect.
	for _, user := range []string{"a", "b"} {
		if _, err := d.Get(user); err != nil {
			t.Fatalf("acked record %q lost across reopen: %v", user, err)
		}
	}
	if _, err := d.Get("c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused write resurrected by reopen: %v", err)
	}
	// And the shard accepts writes again.
	if err := d.Put(versionedRecord("e", 1)); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}

	// Reopening a healthy shard is a no-op error-wise; reopening an
	// out-of-range shard is refused.
	if err := d.ReopenShard(0); err != nil {
		t.Fatalf("reopen of healthy shard: %v", err)
	}
	if err := d.ReopenShard(9); err == nil {
		t.Fatal("reopen of shard 9 on a 1-shard store succeeded")
	}
}

// snapshotSource returns the ShardSnapshot frames of a one-shard store
// holding every kind of live state a snapshot carries — records (one
// replaced, one deleted), lockout counters (one cleared) and
// side-table entries (one deleted) — and the view a store that
// installed them must have: the source's state, with exactly those
// frames as its log.
func snapshotSource(t *testing.T) ([]byte, shardView) {
	t.Helper()
	src := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncNever, NoAutoCompact: true})
	for i := 0; i < 6; i++ {
		if err := src.Put(versionedRecord(fmt.Sprintf("snap-%d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Replace(versionedRecord("snap-1", 1)); err != nil {
		t.Fatal(err)
	}
	src.Delete("snap-2")
	for user, n := range map[string]int{"snap-3": 4, "snap-4": 2, "ghost": 1} {
		if err := src.SetLockout(user, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.SetLockout("snap-4", 0); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{"session/key/1": "k1", "session/rev/snap-5": "9", "gone": "x"} {
		if err := src.SetKV(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.SetKV("gone", nil); err != nil {
		t.Fatal(err)
	}
	frames, _, err := src.ShardSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(t, src)
	want.log = string(frames)
	return frames, want
}

// shardView is everything an install may change about a one-shard
// store: its records, lockout counters, side table, log bytes and
// fail-stop state.
type shardView struct {
	records  string
	lockouts map[string]int
	kv       map[string][]byte
	log      string
	failed   []int
}

func viewOf(t *testing.T, d *Durable) shardView {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(d.Dir(), shardLogName(0)))
	if err != nil {
		t.Fatal(err)
	}
	return shardView{string(saveBytes(t, d)), d.Lockouts(), d.KVRange(""), string(data), d.Health().Failed}
}

// frameOf frames payload for the log without looking at it.
func frameOf(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// jsonFrame frames e as releases before binary payloads wrote it: the
// bytes json.Marshal writes for the entry, which their hand-written
// encoder matched byte for byte.
func jsonFrame(t testing.TB, e walEntry) []byte {
	t.Helper()
	return frameOf(mustMarshal(t, e))
}

// TestInstallShardSnapshotRefusesBadFrames: a snapshot that fails the
// validator ApplyReplFrames uses — a torn frame, a CRC failure, a
// payload that does not decode, a generation marker — is refused
// without touching the shard: its maps, its log bytes and its
// fail-stop state stay as they were, on a healthy shard and on a
// fail-stopped one. The clean snapshot then installs, making the shard
// the source's and bringing a fail-stopped shard back healthy.
func TestInstallShardSnapshotRefusesBadFrames(t *testing.T) {
	frames, want := snapshotSource(t)
	marker := jsonFrame(t, walEntry{Op: walOpCkpt, Ckpt: 1, Full: true})
	crc := bytes.Clone(frames)
	crc[walHeaderSize+2] ^= 0x40
	bad := []struct {
		name   string
		frames []byte
	}{
		{"torn", frames[:len(frames)-3]},
		{"crc", crc},
		{"undecodable", append(bytes.Clone(frames), frameOf([]byte("not json"))...)},
		{"marker", append(bytes.Clone(frames), marker...)},
	}
	for _, failStopped := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail-stopped=%v", failStopped), func(t *testing.T) {
			ctl := &faultCtl{}
			if failStopped {
				ctl.syncErr = failAfter(2, errors.New("injected fsync failure"))
			}
			dst := openFaulty(t, t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}, ctl)
			if err := dst.Put(versionedRecord("old", 0)); err != nil {
				t.Fatal(err)
			}
			if err := dst.SetLockout("old", 2); err != nil && !failStopped {
				t.Fatal(err)
			}
			if err := dst.SetKV("session/key/old", []byte("o")); !errors.Is(err, ErrShardFailed) && failStopped {
				t.Fatalf("SetKV on a fail-stopped shard = %v, want ErrShardFailed", err)
			}
			before := viewOf(t, dst)
			if got := len(before.failed) == 1; got != failStopped {
				t.Fatalf("Health().Failed = %v with failStopped %v", before.failed, failStopped)
			}
			for _, b := range bad {
				if err := dst.InstallShardSnapshot(0, b.frames); err == nil {
					t.Fatalf("%s snapshot installed without error", b.name)
				}
				if after := viewOf(t, dst); !reflect.DeepEqual(after, before) {
					t.Fatalf("refused %s snapshot changed the shard:\n got %+v\nwant %+v", b.name, after, before)
				}
			}
			if err := dst.InstallShardSnapshot(0, frames); err != nil {
				t.Fatalf("clean snapshot: %v", err)
			}
			if got := viewOf(t, dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("installed shard differs from the source:\n got %+v\nwant %+v", got, want)
			}
			if err := dst.Put(versionedRecord("after", 0)); err != nil {
				t.Fatalf("write after install: %v", err)
			}
		})
	}
}

// TestInstallShardSnapshotCrashBeforeRename copies the store directory
// at the install's crash point — the snapshot fsynced in its temp file,
// the rename not yet made — and proves the copy reopens to the
// pre-install state and removes the stranded temp file, while the live
// store goes on to hold the snapshot.
func TestInstallShardSnapshotCrashBeforeRename(t *testing.T) {
	frames, installed := snapshotSource(t)
	opts := DurableOptions{Shards: 1, Sync: SyncNever, NoAutoCompact: true}
	dst := openDurableT(t, opts)
	ckptOps(t, dst, 0, 40)
	if err := dst.SetKV("session/key/old", []byte("o")); err != nil {
		t.Fatal(err)
	}
	want := viewOf(t, dst)
	crash := t.TempDir()
	dst.testCrashBeforeCompactRename = func(int) { copyDir(t, dst.Dir(), crash) }
	if err := dst.InstallShardSnapshot(0, frames); err != nil {
		t.Fatal(err)
	}
	if got := viewOf(t, dst); !reflect.DeepEqual(got, installed) {
		t.Fatalf("installed shard differs from the source:\n got %+v\nwant %+v", got, installed)
	}
	stranded, err := filepath.Glob(filepath.Join(crash, ".compact-*"))
	if err != nil || len(stranded) != 1 {
		t.Fatalf("crash copy holds temp files %v (err %v), want one", stranded, err)
	}
	back, err := OpenDurable(crash, opts)
	if err != nil {
		t.Fatalf("reopening the install-crash copy: %v", err)
	}
	defer back.Close()
	if got := viewOf(t, back); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash before the install's rename did not reopen to the pre-install state:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(stranded[0]); !os.IsNotExist(err) {
		t.Errorf("stranded install temp file not removed at open (err %v)", err)
	}
}
