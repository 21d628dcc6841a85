package vault

// Replication support for the durable store. The repl package
// (internal/vault/repl) builds primary/backup log shipping on four
// seams exported here, and moves a shard's state only as log frames:
//
//   - SetReplHooks wires a commit sink (every locally committed frame
//     batch, in log order, labeled with per-shard sequence numbers)
//     and an optional quorum gate (block a mutation's ack until the
//     follower's fsync covers it).
//   - ShardSnapshot / InstallShardSnapshot move a whole shard's state
//     for follower bootstrap as the log compaction would write: the
//     primary encodes its live maps as frames, and the follower
//     validates them, makes them its shard's log through the same
//     replacement compaction uses, and rebuilds its maps by replaying
//     them.
//   - ApplyReplFrames appends a received frame batch to a follower's
//     shard log and applies it through the same walEntry switch as
//     startup replay, so replicated state is byte-equivalent to
//     crash-recovered state by construction. It kicks the compactor
//     by the same garbage ratio as a local write, so a follower's
//     logs stay as bounded as the primary's.
//   - Epoch / AdvanceEpoch persist the monotonic failover epoch in
//     meta.json; a deposed primary that observes a higher epoch
//     fences itself by refusing writes (see ErrNotPrimary).
//
// Health and ReopenShard round out the operational story: per-shard
// fail-stop state is observable, and a fail-stopped shard can be
// re-replayed from its durable prefix under supervision instead of
// requiring a process restart.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"maps"

	"clickpass/internal/canonjson"
	"clickpass/internal/passpoints"
)

// ErrNotPrimary marks mutations refused because the serving node is a
// replication follower, or a deposed primary that has fenced itself
// after observing a higher epoch. Match with errors.Is; the concrete
// type NotPrimaryError may carry the current primary's address.
var ErrNotPrimary = errors.New("vault: not the replication primary")

// NotPrimaryError is the refusal a follower (or fenced ex-primary)
// returns for mutations. errors.Is(err, ErrNotPrimary) matches it;
// Primary, when non-empty, is the advertised address of the node that
// should be written to instead — transports forward it as a redirect
// hint.
type NotPrimaryError struct {
	// Primary is the advertised client address of the current primary,
	// "" when unknown (e.g. mid-failover).
	Primary string
}

// Error implements error.
func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return "vault: not the replication primary"
	}
	return fmt.Sprintf("vault: not the replication primary (primary is %s)", e.Primary)
}

// Unwrap makes errors.Is(err, ErrNotPrimary) match.
func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// ReplHooks connects a Durable store to a replication sender. Install
// with SetReplHooks before serving traffic.
type ReplHooks struct {
	// Commit receives every locally committed frame batch of a shard
	// in strict log order: under SyncAlways a batch is delivered only
	// after the group-commit fsync that made it durable; under the
	// other policies after the write. lastSeq is the shard-local
	// sequence number of the batch's final record — the batch holds
	// the frames for seqs (lastSeq-n+1 .. lastSeq), n its record
	// count. Acks, snapshot seqs and resume floors all fall on batch
	// boundaries, so a sender can retain and ship each batch whole.
	// Called with the shard's mutex held: implementations must only
	// copy the bytes out and return; calling back into the store
	// deadlocks.
	Commit func(shard int, frames []byte, lastSeq uint64)
	// QuorumWait, when non-nil, gates every mutation's ack: after the
	// record is locally durable, the writer blocks until QuorumWait
	// returns — the quorum ack mode's hook, typically waiting for a
	// follower fsync to cover (shard, seq). Called without any shard
	// lock held. An error fails that writer's call but never rolls
	// back or fail-stops the shard: the record is locally durable and
	// the stream redelivers it on reconnect, so primary and follower
	// cannot diverge — the caller merely could not be promised replica
	// coverage.
	QuorumWait func(shard int, seq uint64) error
}

// SetReplHooks installs (or, with a zero ReplHooks, removes) the
// store's replication hooks. Install before the store takes traffic:
// mutations racing the swap may ack under either regime.
func (d *Durable) SetReplHooks(h ReplHooks) {
	for i := range d.logs {
		sh := &d.logs[i]
		idx := i
		sh.mu.Lock()
		if h.Commit != nil {
			commit := h.Commit
			sh.ship = func(frames []byte, lastSeq uint64) { commit(idx, frames, lastSeq) }
		} else {
			sh.ship = nil
		}
		sh.mu.Unlock()
	}
	if h.QuorumWait != nil {
		wait := h.QuorumWait
		d.replWait.Store(&wait)
	} else {
		d.replWait.Store(nil)
	}
}

// Epoch returns the store's persisted replication epoch (0 for a
// directory that has never participated in a failover).
func (d *Durable) Epoch() uint64 { return d.epoch.Load() }

// AdvanceEpoch durably raises the store's epoch to e (meta.json is
// rewritten atomically) and returns the effective epoch afterwards.
// Epochs only move forward: e at or below the current value is a
// no-op returning the current epoch, so concurrent observers can all
// report what they saw and the maximum wins.
func (d *Durable) AdvanceEpoch(e uint64) (uint64, error) {
	d.metaMu.Lock()
	defer d.metaMu.Unlock()
	cur := d.epoch.Load()
	if e <= cur {
		return cur, nil
	}
	m, err := loadOrInitMeta(d.dir, len(d.shards))
	if err != nil {
		return cur, err
	}
	m.Epoch = e
	if err := writeMetaFile(d.dir, m); err != nil {
		return cur, err
	}
	d.epoch.Store(e)
	return e, nil
}

// ShardHealth reports the durable store's per-shard fail-stop state —
// the /metrics surface for ErrShardFailed.
type ShardHealth struct {
	// Shards is the total shard count.
	Shards int
	// Failed lists the indexes of fail-stopped shards, ascending.
	Failed []int
}

// Health returns the store's current per-shard fail-stop state.
func (d *Durable) Health() ShardHealth {
	h := ShardHealth{Shards: len(d.logs)}
	for i := range d.logs {
		sh := &d.logs[i]
		sh.mu.RLock()
		if sh.failed != nil {
			h.Failed = append(h.Failed, i)
		}
		sh.mu.RUnlock()
	}
	return h
}

// ReopenShard is the supervised recovery path for a fail-stopped
// shard: it re-runs the shard's startup recovery (log replay with
// torn-tail truncation) against the on-disk state and, on
// success, clears the fail-stop so the shard accepts mutations again.
// The shard rolls back to its durable prefix — any write acked before
// the failing fsync whose pages the kernel then dropped is gone, which
// is exactly why the shard fail-stopped rather than trust the kernel
// (see ErrShardFailed); the operator invokes this knowingly, typically
// after the underlying volume recovered. A healthy shard is a no-op.
func (d *Durable) ReopenShard(i int) error {
	if i < 0 || i >= len(d.logs) {
		return fmt.Errorf("vault: no shard %d", i)
	}
	sh := &d.logs[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.f == nil {
		return errClosed
	}
	if sh.failed == nil {
		return nil
	}
	for sh.syncing {
		sh.commit.Wait()
	}
	nf, err := d.openFile(sh.path)
	if err != nil {
		return fmt.Errorf("vault: reopening %s: %w", sh.path, err)
	}
	oldF, oldRecs, oldLocks, oldKV := sh.f, sh.records, sh.lockouts, sh.kv
	sh.f = nf
	sh.records = make(map[string]passpoints.Packed, len(oldRecs))
	sh.lockouts = make(map[string]int, len(oldLocks))
	sh.kv = make(map[string][]byte, len(oldKV))
	sh.wbuf = nil
	sh.pending = sh.pending[:0]
	if err := sh.recover(); err != nil {
		// Replay failed: keep serving the pre-reopen acked state in
		// memory and stay fail-stopped under the new cause.
		nf.Close()
		sh.f = oldF
		sh.records, sh.lockouts, sh.kv = oldRecs, oldLocks, oldKV
		sh.failed = err
		return fmt.Errorf("vault: reopening shard %d: %w", i, err)
	}
	oldF.Close()
	sh.failed = nil
	sh.dirty = false
	sh.dirtyGen++
	log.Printf("vault: shard %s reopened after fail-stop; serving the replayed durable prefix", sh.path)
	return nil
}

// ShardSnapshot returns shard i's live state as log frames — the
// records, lockout counters and side-table (KVStore) entries, in the
// encoding compaction writes (see encodeState) — and the shard's
// current mutation sequence number: the bootstrap payload a primary
// streams to a new or lagging follower. The shard is quiesced first so
// the snapshot covers exactly the committed prefix: every mutation with
// seq at or below the returned value is folded in, and the frame
// stream resuming after it completes the state. The maps are copied
// under the shard lock and encoded after it is released, so writers
// wait only for the copy. Stored records and side-table values are
// never modified in place, so the copies may share them.
func (d *Durable) ShardSnapshot(i int) ([]byte, uint64, error) {
	if i < 0 || i >= len(d.logs) {
		return nil, 0, fmt.Errorf("vault: no shard %d", i)
	}
	sh := &d.logs[i]
	sh.mu.Lock()
	if sh.f == nil {
		sh.mu.Unlock()
		return nil, 0, errClosed
	}
	sh.quiesce()
	recs, locks, kv, seq := maps.Clone(sh.records), maps.Clone(sh.lockouts), maps.Clone(sh.kv), sh.seq
	sh.mu.Unlock()
	frames, _ := encodeState(recs, locks, kv)
	return frames, seq, nil
}

// InstallShardSnapshot replaces shard i's entire state with the one
// frames holds — the follower side of bootstrap, which is recovery
// from a shipped log. The frames are validated in full first, as
// ApplyReplFrames validates a batch, and a snapshot that fails is an
// error with no effect. The frames then become the shard's log through
// the one log replacement compaction uses (see replaceLogLocked), so a
// crash during or after the install recovers to either the old or the
// new state, never a blend, and the shard's maps are rebuilt from the
// entries through the replay apply switch. A fail-stopped shard is
// eligible (the install writes a brand-new fsynced file, making
// durability provable again) and comes back healthy on success. Every
// side-table entry the snapshot carries is then delivered to the KV
// watch, so a watcher's soft state catches up with a bootstrap exactly
// like it tracks the frame stream.
func (d *Durable) InstallShardSnapshot(i int, frames []byte) error {
	if i < 0 || i >= len(d.logs) {
		return fmt.Errorf("vault: no shard %d", i)
	}
	entries, err := decodeFrames(frames)
	if err != nil {
		return err
	}
	installed := false
	defer func() {
		if installed {
			d.notifyKV(entries)
		}
	}()
	sh := &d.logs[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.f == nil {
		return errClosed
	}
	sh.quiesce()
	installed, err = d.replaceLogLocked(i, sh, frames, len(entries))
	if installed {
		sh.records = make(map[string]passpoints.Packed)
		sh.lockouts = make(map[string]int)
		sh.kv = make(map[string][]byte)
		for j := range entries {
			sh.apply(&entries[j])
		}
	}
	if err == nil {
		sh.failed = nil
	}
	return err
}

// decodeFrames validates a shipped concatenation of log frames in full
// — framing, CRCs, payloads that decode, no generation markers — and
// returns its entries. It is the all-or-nothing check ApplyReplFrames
// and InstallShardSnapshot make before either touches the shard: any
// torn header, oversized length, CRC mismatch, trailing garbage,
// undecodable payload or marker is an error naming the offset.
func decodeFrames(frames []byte) ([]walEntry, error) {
	var entries []walEntry
	for off := 0; off < len(frames); {
		if len(frames)-off < walHeaderSize {
			return nil, fmt.Errorf("vault: torn frame header at offset %d", off)
		}
		length := binary.LittleEndian.Uint32(frames[off : off+4])
		sum := binary.LittleEndian.Uint32(frames[off+4 : off+8])
		if length == 0 || length > walMaxRecord {
			return nil, fmt.Errorf("vault: corrupt frame length %d at offset %d", length, off)
		}
		end := off + walHeaderSize + int(length)
		if end > len(frames) {
			return nil, fmt.Errorf("vault: torn frame payload at offset %d", off)
		}
		payload := frames[off+walHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("vault: frame CRC mismatch at offset %d", off)
		}
		var e walEntry
		if err := canonjson.Unmarshal(payload, &e, readWalEntry); err != nil {
			return nil, fmt.Errorf("vault: corrupt frame payload at offset %d: %w", off, err)
		}
		if e.Op == walOpCkpt {
			// Markers are log-structure records, never shipped; one in
			// shipped frames means the sender is confused.
			return nil, fmt.Errorf("vault: shipped frames carry a generation marker at offset %d", off)
		}
		entries = append(entries, e)
		off = end
	}
	return entries, nil
}

// notifyKV delivers the side-table writes among entries to the KV
// watch. Callers run it once every shard lock is released: the watcher
// may call back into the store.
func (d *Durable) notifyKV(entries []walEntry) {
	if w := d.kvWatch.Load(); w != nil {
		for j := range entries {
			if entries[j].Op == walOpKV && entries[j].Key != "" {
				(*w)(entries[j].Key, entries[j].Val)
			}
		}
	}
}

// ApplyReplFrames appends a received batch of framed mutation records
// to shard i's log and applies them to its maps — the follower's
// write path, through the same appendDirect as a local unsynced
// mutation and the same walEntry apply switch as startup replay.
// The batch is validated in full first (framing, CRCs, JSON, no
// generation markers) and applied all-or-nothing: a corrupt batch is
// an error with no effect, so the sender can simply resend from the
// last acknowledged position. Under SyncAlways the append is fsynced
// before returning — the durability a quorum ack then vouches for —
// and a failed fsync rolls the batch back and fail-stops the shard,
// as a failed group commit does. Once the batch is applied, the
// compactor is kicked when the shard's garbage crosses the same ratio
// mutate checks.
func (d *Durable) ApplyReplFrames(i int, frames []byte) error {
	if i < 0 || i >= len(d.logs) {
		return fmt.Errorf("vault: no shard %d", i)
	}
	if len(frames) == 0 {
		return nil
	}
	entries, err := decodeFrames(frames)
	if err != nil {
		return err
	}
	// Deliver applied side-table writes to the KV watch once every lock
	// is dropped (this defer is registered before the unlock defer, so
	// it runs after it): the watcher may call back into the store.
	applied := false
	defer func() {
		if applied {
			d.notifyKV(entries)
		}
	}()
	sh := &d.logs[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Fsync under the lock: a follower's shard has no concurrent
	// foreground writers, so this only delays reads, and it keeps the
	// ack the caller sends upstream honest.
	if err := sh.appendDirect(entries, frames, d.opts.Sync == SyncAlways); err != nil {
		return err
	}
	applied = true
	if sh.needsCompact() {
		d.kickCompact(i)
	}
	return nil
}
