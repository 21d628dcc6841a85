package vault

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestKVDurability: side-table writes survive a reopen, deletes stay
// deleted, and compaction carries the entries.
func TestKVDurability(t *testing.T) {
	dir := t.TempDir()
	open := func() *Durable {
		d, err := OpenDurable(dir, DurableOptions{Shards: 4, Sync: SyncAlways, NoAutoCompact: true})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		return d
	}
	d := open()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("session/key/%d", i)
		if err := d.SetKV(k, []byte(fmt.Sprintf("secret-%d", i))); err != nil {
			t.Fatalf("SetKV %s: %v", k, err)
		}
	}
	if err := d.SetKV("session/key/3", nil); err != nil {
		t.Fatalf("SetKV delete: %v", err)
	}
	if err := d.SetKV("other/x", []byte("y")); err != nil {
		t.Fatalf("SetKV other: %v", err)
	}
	if _, ok := d.GetKV("session/key/3"); ok {
		t.Fatalf("deleted key still present")
	}
	if v, ok := d.GetKV("session/key/7"); !ok || string(v) != "secret-7" {
		t.Fatalf("GetKV session/key/7 = %q, %v", v, ok)
	}
	if got := len(d.KVRange("session/")); got != 19 {
		t.Fatalf("KVRange(session/) has %d entries, want 19", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d = open()
	if v, ok := d.GetKV("session/key/7"); !ok || string(v) != "secret-7" {
		t.Fatalf("after reopen: GetKV session/key/7 = %q, %v", v, ok)
	}
	if _, ok := d.GetKV("session/key/3"); ok {
		t.Fatalf("after reopen: deleted key resurrected")
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d = open()
	defer d.Close()
	got := d.KVRange("")
	if len(got) != 20 {
		t.Fatalf("after compact+reopen: %d entries, want 20", len(got))
	}
	if !bytes.Equal(got["session/key/7"], []byte("secret-7")) {
		t.Fatalf("after compact+reopen: session/key/7 = %q", got["session/key/7"])
	}
}

// TestKVReplicatedApply: KV frames flow through the replication apply
// path (ApplyReplFrames) byte-identically and fire the KV watch after
// the shard lock is released.
func TestKVReplicatedApply(t *testing.T) {
	src, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	if err != nil {
		t.Fatalf("OpenDurable src: %v", err)
	}
	defer src.Close()
	dst, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	if err != nil {
		t.Fatalf("OpenDurable dst: %v", err)
	}
	defer dst.Close()

	type ev struct {
		key string
		val []byte
	}
	events := make(chan ev, 16)
	dst.SetKVWatch(func(key string, val []byte) {
		// The watch contract says callbacks may re-enter the store:
		// prove it by reading back under the callback.
		dst.GetKV(key)
		events <- ev{key, val}
	})

	var batches [][]byte
	src.SetReplHooks(ReplHooks{Commit: func(shard int, frames []byte, lastSeq uint64) {
		batches = append(batches, append([]byte(nil), frames...))
	}})
	if err := src.SetKV("session/key/1", []byte("k1")); err != nil {
		t.Fatalf("SetKV: %v", err)
	}
	if err := src.SetKV("session/rev/alice", []byte("42")); err != nil {
		t.Fatalf("SetKV: %v", err)
	}
	if err := src.SetKV("session/key/1", nil); err != nil {
		t.Fatalf("SetKV delete: %v", err)
	}
	for _, b := range batches {
		if err := dst.ApplyReplFrames(0, b); err != nil {
			t.Fatalf("ApplyReplFrames: %v", err)
		}
	}
	if _, ok := dst.GetKV("session/key/1"); ok {
		t.Fatalf("replicated delete did not apply")
	}
	if v, ok := dst.GetKV("session/rev/alice"); !ok || string(v) != "42" {
		t.Fatalf("replicated kv = %q, %v", v, ok)
	}
	want := []ev{{"session/key/1", []byte("k1")}, {"session/rev/alice", []byte("42")}, {"session/key/1", nil}}
	for i, w := range want {
		select {
		case got := <-events:
			if got.key != w.key || !bytes.Equal(got.val, w.val) {
				t.Fatalf("watch event %d = %q/%q, want %q/%q", i, got.key, got.val, w.key, w.val)
			}
		case <-time.After(time.Second):
			t.Fatalf("watch event %d never fired", i)
		}
	}
}

// TestKVSnapshotInstall: InstallShardSnapshot of a ShardSnapshot's
// frames replaces KV state and re-delivers the snapshot's entries to
// the watch.
func TestKVSnapshotInstall(t *testing.T) {
	src, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	if err != nil {
		t.Fatalf("OpenDurable src: %v", err)
	}
	defer src.Close()
	if err := src.SetKV("session/key/9", []byte("nine")); err != nil {
		t.Fatalf("SetKV: %v", err)
	}
	frames, _, err := src.ShardSnapshot(0)
	if err != nil {
		t.Fatalf("ShardSnapshot: %v", err)
	}
	dst, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	if err != nil {
		t.Fatalf("OpenDurable dst: %v", err)
	}
	defer dst.Close()
	if err := dst.SetKV("session/key/stale", []byte("old")); err != nil {
		t.Fatalf("SetKV: %v", err)
	}
	seen := make(chan string, 8)
	dst.SetKVWatch(func(key string, val []byte) { seen <- key })
	if err := dst.InstallShardSnapshot(0, frames); err != nil {
		t.Fatalf("InstallShardSnapshot: %v", err)
	}
	if _, ok := dst.GetKV("session/key/stale"); ok {
		t.Fatalf("snapshot install kept a key the snapshot lacks")
	}
	if v, ok := dst.GetKV("session/key/9"); !ok || string(v) != "nine" {
		t.Fatalf("snapshot kv = %q, %v", v, ok)
	}
	select {
	case k := <-seen:
		if k != "session/key/9" {
			t.Fatalf("watch delivered %q, want session/key/9", k)
		}
	case <-time.After(time.Second):
		t.Fatalf("snapshot install fired no watch event")
	}
}
