package vault

// Checkpoints bound the durable store's recovery time. A shard's log
// only records history, so replay cost grows with the store's age;
// a checkpoint snapshots the shard's live state into a canonical
// per-shard file and rotates the log to a fresh one, making replay
// O(records since the last checkpoint) instead of O(all history).
//
// The protocol is write-temp/fsync/rename at every step, in an order
// whose every crash window recovers cleanly:
//
//  1. Quiesce the shard (no group-commit fsync in flight) and write
//     the checkpoint file: the full record and lockout maps plus
//     three identity fields — ID (a fresh random generation id),
//     BaseLogID (the generation marker of the log it summarizes),
//     and BaseOff (the log length it covers). Fsync, rename into
//     place, fsync the directory.
//  2. Rotate the log: a new log whose first record is a generation
//     marker (walEntry op "ckpt") carrying ID, fsynced, renamed over
//     the old log, directory fsynced.
//
// Recovery reads the log's marker (if any) and the checkpoint file
// (if any) and keys on their identity fields:
//
//   - marker.Full (written by compaction, not checkpointing): the log
//     alone is the complete state; any checkpoint file is stale and
//     removed.
//   - ckpt.ID == marker id: the normal case — apply the checkpoint,
//     replay the log tail after the marker.
//   - ckpt.BaseLogID == marker id (including both zero for a virgin
//     log): the crash window between steps 1 and 2 — the checkpoint
//     summarizes this very log's prefix [0, BaseOff), so apply it and
//     replay from BaseOff. If the log is shorter than BaseOff (its
//     unsynced tail died in an OS crash the fsynced checkpoint
//     survived), the checkpoint alone is the exact state: the log is
//     reset to an empty generation under the checkpoint's ID.
//   - anything else: the checkpoint and log disagree about their
//     lineage. Opening would silently drop every record that lives
//     only in the checkpoint, so recovery fails loudly instead.
//
// Compaction (walstore.go) interacts by writing its rewritten log
// with a Full marker and deleting the checkpoint file afterwards; a
// crash between those two steps leaves a stale checkpoint behind a
// Full marker, which the first rule cleans up.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"clickpass/internal/canonjson"
	"clickpass/internal/passpoints"
)

// shardCkptName returns the checkpoint file name for shard i.
func shardCkptName(i int) string { return fmt.Sprintf("shard-%04d.ckpt", i) }

// newWalID returns a fresh nonzero random generation id for a
// checkpoint or compacted log. Random rather than sequential so ids
// from different store lifetimes can never collide and alias a stale
// checkpoint onto a new log.
func newWalID() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("vault: generating checkpoint id: %w", err)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id, nil
}

// walCkpt is the per-shard checkpoint document: the shard's complete
// live state (records in sorted canonical order, like SaveTo) plus
// the identity fields recovery keys on.
type walCkpt struct {
	// Version is the document format version (1).
	Version int `json:"version"`
	// ID is the checkpoint's generation id; the rotated log's marker
	// record carries the same id.
	ID uint64 `json:"id"`
	// BaseLogID is the generation marker id of the log this
	// checkpoint summarizes (0 for a virgin, never-rotated log).
	BaseLogID uint64 `json:"base_log_id"`
	// BaseOff is the byte length of that log covered by this
	// checkpoint: every record below BaseOff is folded in.
	BaseOff int64 `json:"base_off"`
	// Records is the live record set, sorted by user.
	Records []*passpoints.Record `json:"records"`
	// Lockouts is the live failed-attempt counter set.
	Lockouts map[string]int `json:"lockouts,omitempty"`
	// KV is the live side-table (KVStore) entry set.
	KV map[string][]byte `json:"kv,omitempty"`
}

// walCkptKeys are walCkpt's JSON member names in declaration order.
var walCkptKeys = canonjson.Keys[walCkpt]()

// readWalCkpt reads a checkpoint document without reflection (see
// package canonjson).
func readWalCkpt(r *canonjson.Reader, ck *walCkpt) {
	r.Object(walCkptKeys, func(i int) {
		switch i {
		case 0:
			ck.Version = r.Int()
		case 1:
			ck.ID = r.Uint64()
		case 2:
			ck.BaseLogID = r.Uint64()
		case 3:
			ck.BaseOff = r.Int64()
		case 4:
			ck.Records = canonjson.Slice(r, passpoints.ReadRecord)
		case 5:
			ck.Lockouts = canonjson.Map(r, (*canonjson.Reader).Int)
		case 6:
			ck.KV = canonjson.Map(r, (*canonjson.Reader).Bytes)
		}
	})
}

// readMarker decodes the log's first record if it is an intact
// generation marker (op "ckpt" with a nonzero id), returning the
// marker and its framed length. A missing, torn, corrupt, or
// non-marker first record returns (nil, 0, nil) — the log is treated
// as a plain full-history log and replayLog handles any damage.
func readMarker(f walFile) (*walEntry, int64, error) {
	var header [walHeaderSize]byte
	if _, err := f.ReadAt(header[:], 0); err != nil {
		return nil, 0, nil // empty or torn-header log
	}
	length := binary.LittleEndian.Uint32(header[0:4])
	sum := binary.LittleEndian.Uint32(header[4:8])
	if length == 0 || length > walMaxRecord {
		return nil, 0, nil
	}
	payload := make([]byte, length)
	if _, err := f.ReadAt(payload, walHeaderSize); err != nil {
		return nil, 0, nil
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, nil
	}
	var e walEntry
	if err := canonjson.Unmarshal(payload, &e, readWalEntry); err != nil {
		return nil, 0, nil
	}
	if e.Op != walOpCkpt || e.Ckpt == 0 {
		return nil, 0, nil
	}
	return &e, walHeaderSize + int64(length), nil
}

// markerID returns a marker's generation id, 0 for no marker.
func markerID(m *walEntry) uint64 {
	if m == nil {
		return 0
	}
	return m.Ckpt
}

// loadCkpt reads and validates a shard checkpoint file. A missing
// file returns (nil, nil); an unreadable or corrupt one returns an
// error — the caller decides whether the log can stand alone.
func loadCkpt(path string) (*walCkpt, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("vault: reading checkpoint %s: %w", path, err)
	}
	var ck walCkpt
	if err := canonjson.Unmarshal(data, &ck, readWalCkpt); err != nil {
		return nil, fmt.Errorf("vault: parsing checkpoint %s: %w", path, err)
	}
	if ck.Version != 1 || ck.ID == 0 || ck.BaseOff < 0 {
		return nil, fmt.Errorf("vault: checkpoint %s has invalid identity (version %d, id %d, base_off %d)",
			path, ck.Version, ck.ID, ck.BaseOff)
	}
	return &ck, nil
}

// applyCkpt folds a checkpoint's state into the shard maps.
func (sh *walShard) applyCkpt(ck *walCkpt) {
	for _, r := range ck.Records {
		if r != nil && r.User != "" {
			sh.records[r.User] = r
		}
	}
	for u, n := range ck.Lockouts {
		if n > 0 {
			sh.lockouts[u] = n
		}
	}
	for k, v := range ck.KV {
		if k != "" && len(v) > 0 {
			sh.kv[k] = v
		}
	}
}

// recover rebuilds the shard's maps from its checkpoint (when one
// exists and matches the log's lineage) and log, per the matching
// rules in the package comment above. It leaves the file truncated to
// the last intact record and positioned for appends.
func (sh *walShard) recover() error {
	marker, markerLen, err := readMarker(sh.f)
	if err != nil {
		return err
	}
	if marker != nil && marker.Full {
		// A compacted log is self-contained; any checkpoint predates it.
		if err := os.Remove(sh.ckptPath); err != nil && !os.IsNotExist(err) {
			log.Printf("vault: removing stale checkpoint %s: %v", sh.ckptPath, err)
		}
		sh.logID = marker.Ckpt
		return sh.replayFrom(0, 0)
	}
	ck, err := loadCkpt(sh.ckptPath)
	if err != nil {
		return err
	}
	switch {
	case ck == nil && marker == nil:
		return sh.replayFrom(0, 0)
	case ck == nil:
		return fmt.Errorf("vault: %s is a rotated log (generation %d) but its checkpoint %s is missing; refusing to open with partial state",
			sh.path, marker.Ckpt, sh.ckptPath)
	case marker != nil && ck.ID == marker.Ckpt:
		// Normal rotated log: checkpoint plus post-rotation tail.
		sh.applyCkpt(ck)
		sh.logID = marker.Ckpt
		return sh.replayFrom(markerLen, sh.live())
	case ck.BaseLogID == markerID(marker):
		// Crash between checkpoint rename and log rotation: the
		// checkpoint summarizes this log's prefix [0, BaseOff).
		size, serr := sh.f.Seek(0, io.SeekEnd)
		if serr != nil {
			return fmt.Errorf("vault: sizing %s: %w", sh.path, serr)
		}
		sh.applyCkpt(ck)
		if size < ck.BaseOff {
			// The log's unsynced tail died in an OS crash the fsynced
			// checkpoint survived; the checkpoint alone is exact.
			return sh.resetLogTo(ck.ID)
		}
		sh.logID = markerID(marker)
		return sh.replayFrom(ck.BaseOff, sh.live())
	default:
		return fmt.Errorf("vault: checkpoint %s (id %d over log generation %d) matches neither %s's generation marker (%d) nor its lineage; refusing to open with possibly partial state — restore the matching files or remove the checkpoint to force full-log recovery",
			sh.ckptPath, ck.ID, ck.BaseLogID, sh.path, markerID(marker))
	}
}

// replayFrom replays the log from offset start and initializes the
// shard's offsets and counters; base seeds the entry count with the
// records already folded in from a checkpoint (an estimate feeding
// only the compaction-ratio heuristic).
func (sh *walShard) replayFrom(start int64, base int) error {
	n, off, err := replayLog(sh.f, start, sh.apply)
	if err != nil {
		return err
	}
	sh.entries = base + n
	sh.sinceCkpt = n
	sh.ckptBytes = off - start
	sh.off = off
	sh.wsize = off
	sh.lsize = off
	return nil
}

// resetLogTo replaces the log's contents with a single generation
// marker carrying id — the recovery path for a log torn below its
// checkpoint's coverage, and the reason marker writes are fsynced
// before renames: after this the log and checkpoint agree again.
func (sh *walShard) resetLogTo(id uint64) error {
	log.Printf("vault: %s shorter than its checkpoint's coverage; resetting log under checkpoint %d", sh.path, id)
	if err := sh.restore(0); err != nil {
		return fmt.Errorf("vault: resetting %s: %w", sh.path, err)
	}
	buf, err := encodeEntry(&walEntry{Op: walOpCkpt, Ckpt: id}, nil)
	if err != nil {
		return err
	}
	if _, err := sh.f.Write(buf); err != nil {
		return fmt.Errorf("vault: writing marker to %s: %w", sh.path, err)
	}
	if err := sh.f.Sync(); err != nil {
		return fmt.Errorf("vault: syncing %s: %w", sh.path, err)
	}
	sh.off = int64(len(buf))
	sh.wsize = sh.off
	sh.lsize = sh.off
	sh.entries = sh.live() + 1
	sh.sinceCkpt = 0
	sh.ckptBytes = 0
	sh.logID = id
	return nil
}

// Checkpoint synchronously checkpoints every shard with any records
// appended since its last checkpoint or compaction. See
// CheckpointShard.
func (d *Durable) Checkpoint() error {
	for i := range d.shards {
		if err := d.CheckpointShard(i); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointShard snapshots shard i's live state into its checkpoint
// file and rotates its log to a fresh generation, so the next open
// replays only records appended after this call. A shard with no
// appends since its last checkpoint (or compaction) is skipped. The
// shard is write-locked for the duration; a crash at any point leaves
// a recoverable combination (see the package comment above).
func (d *Durable) CheckpointShard(i int) error {
	return d.checkpointShard(i, 1, 0)
}

// checkpointShard is CheckpointShard with the periodic checkpointer's
// minimum-delta filters: a shard is snapshotted once its appends since
// the last checkpoint reach minDelta records OR (when minBytes > 0)
// minBytes log bytes, whichever trips first; below both it is skipped.
func (d *Durable) checkpointShard(i, minDelta int, minBytes int64) error {
	if i < 0 || i >= len(d.shards) {
		return fmt.Errorf("vault: no shard %d", i)
	}
	sh := &d.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.f == nil {
		return fmt.Errorf("vault: store is closed")
	}
	if sh.failed != nil {
		return sh.refuse()
	}
	sh.quiesce()
	if sh.sinceCkpt < minDelta && (minBytes <= 0 || sh.ckptBytes < minBytes) {
		return nil
	}
	id, err := newWalID()
	if err != nil {
		return err
	}
	ck := walCkpt{
		Version:   1,
		ID:        id,
		BaseLogID: sh.logID,
		BaseOff:   sh.off,
		Records:   make([]*passpoints.Record, 0, len(sh.records)),
		Lockouts:  make(map[string]int, len(sh.lockouts)),
		KV:        make(map[string][]byte, len(sh.kv)),
	}
	for _, r := range sh.records {
		ck.Records = append(ck.Records, r)
	}
	sort.Slice(ck.Records, func(a, b int) bool { return ck.Records[a].User < ck.Records[b].User })
	for u, n := range sh.lockouts {
		ck.Lockouts[u] = n
	}
	for k, v := range sh.kv {
		ck.KV[k] = v
	}
	if err := writeCkptFile(d.dir, sh.ckptPath, &ck); err != nil {
		return err
	}
	if hook := d.testCrashAfterCkptRename; hook != nil {
		hook(i)
	}
	// Rotate the log: fresh file, marker first, fsync before the
	// rename commits it — recovery trusts that a rotated log's marker
	// is intact.
	tmp, err := os.CreateTemp(d.dir, ".rotate-*")
	if err != nil {
		return fmt.Errorf("vault: rotation temp file: %w", err)
	}
	tmpName := tmp.Name()
	ok := false
	defer func() {
		if !ok {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	buf, err := encodeEntry(&walEntry{Op: walOpCkpt, Ckpt: id}, nil)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		return fmt.Errorf("vault: writing marker to %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("vault: syncing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, sh.path); err != nil {
		return fmt.Errorf("vault: rotating %s: %w", sh.path, err)
	}
	ok = true
	// Reopen by path instead of adopting tmp's descriptor — same
	// rationale as CompactShard: fsyncing a renamed-into-place
	// descriptor can wedge in the kernel on some filesystems.
	tmp.Close()
	nf, err := d.openFile(sh.path)
	if err != nil {
		sh.failStop(fmt.Errorf("vault: reopening rotated %s: %w", sh.path, err))
		return fmt.Errorf("vault: reopening rotated %s: %w", sh.path, err)
	}
	if _, err := nf.Seek(int64(len(buf)), io.SeekStart); err != nil {
		nf.Close()
		sh.failStop(fmt.Errorf("vault: positioning rotated %s: %w", sh.path, err))
		return fmt.Errorf("vault: positioning rotated %s: %w", sh.path, err)
	}
	old := sh.f
	sh.f = nf
	sh.off = int64(len(buf))
	sh.wsize = sh.off
	sh.lsize = sh.off
	sh.entries = 1
	sh.sinceCkpt = 0
	sh.ckptBytes = 0
	sh.dirty = false
	sh.logID = id
	old.Close()
	return syncDir(d.dir)
}

// writeCkptFile writes a checkpoint document durably into place:
// temp file, fsync, rename, directory fsync.
func writeCkptFile(dir, path string, ck *walCkpt) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("vault: encoding checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("vault: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("vault: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("vault: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("vault: committing checkpoint %s: %w", path, err)
	}
	return syncDir(dir)
}

// checkpointLoop is the background checkpointer: every CheckpointEvery
// it snapshots shards with at least CheckpointMin records appended
// since their last checkpoint, bounding startup replay by the cadence.
func (d *Durable) checkpointLoop() {
	defer d.bg.Done()
	t := time.NewTicker(d.opts.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			for i := range d.shards {
				if err := d.checkpointShard(i, d.opts.CheckpointMin, d.opts.CheckpointMinBytes); err != nil {
					log.Printf("vault: background checkpoint of shard %d: %v", i, err)
					// A fail-stopped or closed shard will keep failing;
					// stop spamming this tick.
					break
				}
			}
		}
	}
}
