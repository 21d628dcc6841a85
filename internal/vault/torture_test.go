package vault

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"clickpass/internal/passpoints"
)

// The torture tests simulate crashes at every byte: a scripted random
// workload runs against a Durable store while the test records, for
// each acked mutation, which shard log it landed in and the log's
// size afterwards. Then, for many random "tear points", a copy of the
// log directory is truncated (or corrupted) at that byte and
// reopened. The recovery contract under SyncAlways is exact and
// testable:
//
//   - every mutation whose record lies entirely below the tear was
//     acked and MUST be recovered;
//   - the mutation spanning the tear and everything after it in that
//     log MUST be dropped (replay stops at the first bad record);
//   - other shards' logs are untouched and MUST replay fully.
//
// The expected state is computed by replaying the op script against a
// plain in-memory model — the same semantics the in-memory Sharded
// store implements — so a recovery divergence (false accept, false
// reject, resurrected delete, lost or inflated lockout counter) fails
// loudly.

// tortureOp is one scripted mutation with enough bookkeeping to know
// whether it survives a given tear point in its shard's log.
type tortureOp struct {
	kind     string // "put", "replace", "delete", "lock"
	user     string
	rec      *passpoints.Record
	failures int
	shard    int   // which log the op's record went to
	end      int64 // that log's size once the op was acked
}

// tortureRecord builds a distinct record per (user, version) without
// real hashing, so replace history is distinguishable byte for byte.
func tortureRecord(user string, version int) *passpoints.Record {
	return &passpoints.Record{
		User: user, Kind: passpoints.KindCentered,
		SquareSidePx: 13, Iterations: 2,
		Salt:   []byte{byte(version), byte(version >> 8), 0xAB},
		Digest: []byte{byte(version * 7), byte(version), 0xCD, 0xEF},
	}
}

// runTortureScript drives nOps random mutations against a fresh
// SyncAlways durable store in dir and returns the op log. Each op
// records its shard log's size at ack time, which — because every
// append is a single write followed by fsync — is exactly the offset
// below which the op's record is fully on disk.
func runTortureScript(t *testing.T, dir string, shards, nOps int, rng *rand.Rand) []tortureOp {
	t.Helper()
	d, err := OpenDurable(dir, DurableOptions{Shards: shards, Sync: SyncAlways, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	users := make([]string, 24)
	for i := range users {
		users[i] = fmt.Sprintf("acct-%02d", i)
	}
	version := 0
	var ops []tortureOp
	live := map[string]bool{}
	for len(ops) < nOps {
		user := users[rng.Intn(len(users))]
		version++
		op := tortureOp{user: user}
		switch k := rng.Intn(10); {
		case k < 4: // put or replace
			op.rec = tortureRecord(user, version)
			if live[user] {
				op.kind = "replace"
				if err := d.Replace(op.rec); err != nil {
					t.Fatal(err)
				}
			} else {
				op.kind = "put"
				if err := d.Put(op.rec); err != nil {
					t.Fatal(err)
				}
				live[user] = true
			}
		case k < 6: // delete (skip if nothing to delete: no record appended)
			if !live[user] {
				continue
			}
			op.kind = "delete"
			d.Delete(user)
			live[user] = false
		default: // lockout write; ~1/3 of them clear the counter
			op.kind = "lock"
			op.failures = rng.Intn(9) // 0..8, 0 clears
			if err := d.SetLockout(user, op.failures); err != nil {
				t.Fatal(err)
			}
		}
		sh, idx := d.shardFor(user)
		op.shard = idx
		st, err := os.Stat(sh.path)
		if err != nil {
			t.Fatal(err)
		}
		op.end = st.Size()
		ops = append(ops, op)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// tortureExpect folds the ops that survive a tear at offset tearAt in
// shard tearShard into the expected post-recovery state. An op in
// another shard always survives; an op in the torn shard survives iff
// its record ends at or below the tear.
func tortureExpect(ops []tortureOp, tearShard int, tearAt int64) (map[string]*passpoints.Record, map[string]int) {
	recs := map[string]*passpoints.Record{}
	locks := map[string]int{}
	dropped := false // once an op in the torn shard is dropped, all later ops there are too
	for _, op := range ops {
		if op.shard == tearShard {
			if dropped || op.end > tearAt {
				dropped = true
				continue
			}
		}
		switch op.kind {
		case "put", "replace":
			recs[op.user] = op.rec
		case "delete":
			delete(recs, op.user)
		case "lock":
			if op.failures > 0 {
				locks[op.user] = op.failures
			} else {
				delete(locks, op.user)
			}
		}
	}
	return recs, locks
}

// assertRecovered compares a reopened store against the expected
// model, record bytes and lockout counters both ways (nothing lost,
// nothing resurrected).
func assertRecovered(t *testing.T, trial string, d *Durable, recs map[string]*passpoints.Record, locks map[string]int) {
	t.Helper()
	if got, want := d.Len(), len(recs); got != want {
		t.Errorf("%s: recovered %d records, want %d", trial, got, want)
	}
	for user, want := range recs {
		got, err := d.Get(user)
		if err != nil {
			t.Errorf("%s: acked record %q lost (false reject): %v", trial, user, err)
			continue
		}
		if !bytes.Equal(got.Salt, want.Salt) || !bytes.Equal(got.Digest, want.Digest) {
			t.Errorf("%s: %q recovered with wrong contents (stale version)", trial, user)
		}
	}
	for _, user := range d.Users() {
		if _, ok := recs[user]; !ok {
			t.Errorf("%s: unacked/deleted record %q resurrected (false accept)", trial, user)
		}
	}
	gotLocks := d.Lockouts()
	for user, want := range locks {
		if gotLocks[user] != want {
			t.Errorf("%s: lockout[%q] = %d, want %d", trial, user, gotLocks[user], want)
		}
	}
	for user := range gotLocks {
		if _, ok := locks[user]; !ok {
			t.Errorf("%s: lockout for %q resurrected", trial, user)
		}
	}
}

// copyDir clones the log directory so each trial tears a fresh copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTortureTruncatedTail kills the write stream at random byte
// offsets — the torn-write crash — and asserts exact-prefix recovery.
func TestTortureTruncatedTail(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + shards)))
			src := t.TempDir()
			ops := runTortureScript(t, src, shards, 250, rng)
			trials := 40
			if testing.Short() {
				trials = 10
			}
			for trial := 0; trial < trials; trial++ {
				tearShard := rng.Intn(shards)
				logPath := filepath.Join(src, shardLogName(tearShard))
				st, err := os.Stat(logPath)
				if err != nil {
					t.Fatal(err)
				}
				if st.Size() == 0 {
					continue
				}
				tearAt := rng.Int63n(st.Size() + 1)
				dst := t.TempDir()
				copyDir(t, src, dst)
				if err := os.Truncate(filepath.Join(dst, shardLogName(tearShard)), tearAt); err != nil {
					t.Fatal(err)
				}
				d, err := OpenDurable(dst, DurableOptions{Shards: shards, NoAutoCompact: true})
				if err != nil {
					t.Fatalf("trial %d: recovery failed outright: %v", trial, err)
				}
				recs, locks := tortureExpect(ops, tearShard, tearAt)
				assertRecovered(t, fmt.Sprintf("truncate(shard %d @ %d)", tearShard, tearAt), d, recs, locks)
				// Recovery must leave a store that accepts new writes.
				if err := d.Put(tortureRecord("post-crash", 1)); err != nil && !errors.Is(err, ErrExists) {
					t.Errorf("trial %d: post-recovery Put failed: %v", trial, err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestTortureCorruptTail flips a byte instead of truncating — the
// bit-rot / partial-overwrite crash. The record containing the flip
// fails its CRC, so recovery must keep everything strictly before
// that record and drop it and the rest of that log.
func TestTortureCorruptTail(t *testing.T) {
	const shards = 2
	rng := rand.New(rand.NewSource(7))
	src := t.TempDir()
	ops := runTortureScript(t, src, shards, 250, rng)
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		tearShard := rng.Intn(shards)
		logPath := filepath.Join(src, shardLogName(tearShard))
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			continue
		}
		flipAt := rng.Int63n(st.Size())
		dst := t.TempDir()
		copyDir(t, src, dst)
		target := filepath.Join(dst, shardLogName(tearShard))
		data, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		data[flipAt] ^= 0xFF
		if err := os.WriteFile(target, data, 0o600); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(dst, DurableOptions{Shards: shards, NoAutoCompact: true})
		if err != nil {
			t.Fatalf("trial %d: recovery failed outright: %v", trial, err)
		}
		// The corrupted byte sits inside the record that ends at the
		// smallest op.end > flipAt; that record and everything after it
		// in this log are dropped, so the survivors are exactly the ops
		// with end <= flipAt.
		recs, locks := tortureExpect(ops, tearShard, flipAt)
		assertRecovered(t, fmt.Sprintf("corrupt(shard %d @ %d)", tearShard, flipAt), d, recs, locks)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTortureRecoveredStoreAgreesWithMemory reruns the full op script
// (no tear) against both the replayed durable store and a one-shard
// in-memory Sharded store and demands byte-identical Get results — the
// "zero false accepts/rejects vs the in-memory backend" acceptance
// criterion.
func TestTortureRecoveredStoreAgreesWithMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	src := t.TempDir()
	ops := runTortureScript(t, src, 4, 300, rng)
	mem := NewSharded(1)
	for _, op := range ops {
		switch op.kind {
		case "put":
			if err := mem.Put(op.rec); err != nil {
				t.Fatal(err)
			}
		case "replace":
			if err := mem.Replace(op.rec); err != nil {
				t.Fatal(err)
			}
		case "delete":
			mem.Delete(op.user)
		}
	}
	d, err := OpenDurable(src, DurableOptions{Shards: 4, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != mem.Len() {
		t.Fatalf("replayed Len = %d, in-memory Len = %d", d.Len(), mem.Len())
	}
	memUsers := mem.Users()
	dUsers := d.Users()
	for i, u := range memUsers {
		if dUsers[i] != u {
			t.Fatalf("user lists diverge: %v vs %v", dUsers, memUsers)
		}
		mr, _ := mem.Get(u)
		dr, err := d.Get(u)
		if err != nil {
			t.Fatalf("%q in memory but not replayed: %v", u, err)
		}
		if !bytes.Equal(mr.Salt, dr.Salt) || !bytes.Equal(mr.Digest, dr.Digest) {
			t.Errorf("%q differs between replayed and in-memory store", u)
		}
	}
}
