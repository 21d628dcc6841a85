package vault

import (
	"errors"
	"fmt"
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
