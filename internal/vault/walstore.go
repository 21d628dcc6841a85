package vault

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clickpass/internal/canonjson"
	"clickpass/internal/par"
	"clickpass/internal/passpoints"
)

// SyncPolicy selects when the durable store fsyncs a shard's log after
// appending a mutation. It is the knob that trades acked-write
// durability against write latency; see the package's PERFORMANCE.md
// "Durable vault" table for measured costs.
type SyncPolicy int

// Sync policies, strongest first.
const (
	// SyncAlways fsyncs after every append: an acked mutation survives
	// both a process kill and an OS crash. Concurrent appends to the
	// same shard coalesce into shared group-commit fsyncs, so the
	// per-mutation cost amortizes across writers. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs dirty shards on a background timer, every
	// 100 ms (syncPeriod). An acked mutation survives a process kill
	// immediately (the write() has happened) but may be lost to an OS
	// crash inside the sync window.
	SyncInterval
	// SyncNever leaves syncing to the OS page cache (and Close). Acked
	// mutations survive a process kill but not an OS crash.
	SyncNever
)

// String returns the policy's flag spelling ("always", "interval",
// "never").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag spellings accepted by
// pwserver: "always", "interval", "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("vault: unknown sync policy %q (want always, interval or never)", s)
	}
}

// compactRatio is the garbage-to-live threshold at which a shard's log
// is rewritten: compaction triggers when a log holds more than ratio×
// as many dead records (overwritten, deleted, stale lockout counters)
// as live entries. It bounds a log, and with it start-up replay, to
// about (1+ratio)× the shard's live entries.
const compactRatio = 2.0

// compactMinEntries is the floor below which a shard log is never
// compacted — rewriting a hundred-record file buys nothing and the
// ratio test is noisy at small counts.
const compactMinEntries = 256

// syncPeriod is how often the SyncInterval flusher fsyncs dirty
// shards: the longest an acked write waits to survive an OS crash.
const syncPeriod = 100 * time.Millisecond

// ErrShardFailed marks mutations refused by a fail-stopped shard. A
// shard fail-stops when an fsync of its log fails, or when the
// rollback after a failed append cannot restore the committed offset:
// after a failed fsync the kernel may drop the dirty pages AND clear
// the error state, so a later fsync can report success over lost
// writes (the "fsyncgate" pattern) — no subsequent fsync result can
// prove an append's durability. The shard keeps serving reads (its
// acked state is intact in memory) but refuses every further mutation
// until the process restarts and replays the log.
var ErrShardFailed = errors.New("vault: shard fail-stopped after a log write or sync error")

// errClosed refuses every mutation and flush once Close has run.
var errClosed = errors.New("vault: store is closed")

// DurableOptions configures OpenDurable. The zero value selects
// DefaultShards and SyncAlways with the background compactor enabled.
type DurableOptions struct {
	// Shards is the log/lock partition count; <= 0 selects
	// DefaultShards. The count is fixed when the directory is created
	// and recorded in its meta.json: a record's log is chosen by
	// hash(user) mod Shards, so changing the modulus under an existing
	// directory would strand records in the wrong logs. Reopening with
	// a different value silently keeps the on-disk count (check
	// Shards() for the effective value); to re-partition, SaveTo a
	// JSON snapshot and ImportJSON it into a fresh directory.
	Shards int
	// Sync is the fsync policy for appended mutations.
	Sync SyncPolicy
	// NoAutoCompact disables the background compactor; Compact and
	// CompactShard remain available for manual use (tests, tooling).
	NoAutoCompact bool
}

// Durable is the crash-safe Store: Sharded's shard set and read path
// (see shardSet), with one append-only log file per shard as the
// source of truth. Every mutation — Put, Replace, Delete, and
// lockout-counter writes through the LockoutStore extension — appends
// one length-prefixed, CRC32-checksummed record to its shard's log
// before the call returns, so an acked write survives a crash (exactly
// how durably is the SyncPolicy's call). OpenDurable replays the shard
// logs in parallel (they share nothing) to rebuild memory, truncating
// each log at the first torn or corrupt record: everything acked
// before the tear is recovered, the torn tail is dropped.
//
// Under SyncAlways, concurrent appends to one shard group-commit:
// each writer stages its encoded record under the shard lock, then
// the writers coalesce into batches — one leader writes and fsyncs
// the whole staged buffer — so N concurrent mutations cost one write
// and one fsync, not N of each. Every waiter acks only if the shared
// fsync succeeded, and a failed fsync fails (and rolls back) the
// whole batch. A failed fsync also fail-stops the shard (see
// ErrShardFailed): durability claims after a kernel writeback error
// are unverifiable, so the shard refuses further mutations rather
// than ack them.
//
// Note one visibility caveat of group commit: a mutation becomes
// readable (Get/Users/Snapshot) the moment its record is written,
// microseconds before the shared fsync that acks it. If that fsync
// fails, the batch's map updates are rolled back and the shard
// fail-stops — a reader can briefly observe a mutation that is then
// refused, but never one that silently survives un-acked.
//
// Logs only grow, so a background compactor (or an explicit Compact)
// rewrites a shard's log from its live maps once dead records outgrow
// twice the live set — on a primary and on a replication follower
// alike. That one rewrite bounds each log, and with it startup replay,
// by the shard's live state instead of the store's age. SaveTo exports
// the canonical JSON snapshot Sharded reads and writes, and ImportJSON
// loads one, so a deployment can migrate between backends in either
// direction.
type Durable struct {
	shardSet
	dir    string
	opts   DurableOptions
	logs   []walShard // logs[i] appends for shards[i]
	closed atomic.Bool

	// openFile opens a shard log; tests swap it to inject failing
	// files (see walFile).
	openFile func(path string) (walFile, error)
	// testCrashBeforeCompactRename, when non-nil, runs once a
	// compacted log is fsynced in its temp file, just before the
	// rename commits it — the crash window recovery must tolerate.
	// Tests use it to copy the directory mid-rewrite.
	testCrashBeforeCompactRename func(shard int)

	kick chan int      // compactor nudge, carries a shard index
	stop chan struct{} // closes to stop background goroutines
	bg   sync.WaitGroup

	// metaMu serializes meta.json rewrites (epoch bumps); epoch caches
	// the persisted value for lock-free reads.
	metaMu sync.Mutex
	epoch  atomic.Uint64
	// replWait, when set, blocks a mutation's ack until the configured
	// replica acknowledgement covers (shard, seq) — the quorum hook
	// installed by SetReplHooks. Called without any shard lock held;
	// its error fails the writer but never the shard (the record is
	// locally durable, see ReplHooks).
	replWait atomic.Pointer[func(shard int, seq uint64) error]
	// kvWatch, when set, observes side-table keys changed by the
	// REPLICATED apply paths (ApplyReplFrames, InstallShardSnapshot) —
	// how a follower's soft state (the session key set) learns of
	// primary writes without polling. Local SetKV calls do not fire it:
	// the local writer already knows the value, and firing under the
	// writer's own locks would invite deadlock. Fired after all shard
	// locks are released. See SetKVWatch.
	kvWatch atomic.Pointer[func(key string, val []byte)]
}

// walFile is the slice of *os.File the shard log code uses, split out
// as an interface so tests can inject files whose writes, syncs,
// truncates, or seeks fail on demand (the rollback and fsyncgate
// regression tests). Production code always uses *os.File.
type walFile interface {
	io.Reader
	io.Writer
	io.Seeker
	io.ReaderAt
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Close releases the file.
	Close() error
	// Name returns the file's path for error messages.
	Name() string
}

// defaultOpenFile opens a real log file read-write, creating it if
// missing.
func defaultOpenFile(path string) (walFile, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
}

// walPending is one record written to a shard's log but not yet
// covered by a successful fsync: the bookkeeping group commit and a
// synced appendDirect need to ack (drop the undo) or fail (run it) a
// whole batch at once.
type walPending struct {
	end  int64  // log length once this record was written
	undo func() // reverts the record's eager map application
}

// walShard is the log of one shard of the set: the shard's lockouts
// and KV, its file and offsets. It takes the shard's lock, whose
// write side covers the records, the maps here, the file and all
// offsets, and whose read side every Durable read takes. The commit
// condvar (sharing the write lock) coordinates group commit: under
// SyncAlways writers stage their encoded records in wbuf under the
// lock, then wait on the condvar while one of them — the batch leader
// — writes and fsyncs the whole buffer outside the lock and wakes
// everyone with the shared result.
// Staging in memory rather than writing through matters beyond the
// saved syscalls: an fsync racing concurrent appends to the same
// inode degrades badly on journaling filesystems (the flush chases
// freshly dirtied pages), so exactly one goroutine — the leader —
// ever touches the file while a sync is possible.
type walShard struct {
	*shard             // the records and their lock
	commit   sync.Cond // group-commit wakeups; commit.L == &mu
	lockouts map[string]int
	// kv holds the shard's slice of the small durable key/value side
	// table (see KVStore): opaque blobs keyed by FNV32a(key) exactly
	// like records, logged, compacted, and replicated by the same
	// machinery. Session signing keys and revocation watermarks live
	// here.
	kv   map[string][]byte
	f    walFile
	path string
	// Three log lengths, always off <= wsize <= lsize:
	// off is the committed length — every byte below it belongs to an
	// acked record (and, under SyncAlways, has been fsynced); wsize
	// is the length written to the file; lsize is the logical length
	// including records still staged in wbuf. Outside an in-flight
	// group commit all three are equal.
	off   int64
	wsize int64
	lsize int64
	wbuf  []byte // staged frames awaiting the next batch flush
	// entries counts records in the log since its last rewrite.
	entries  int
	dirty    bool   // has unsynced appends (SyncInterval bookkeeping)
	dirtyGen uint64 // bumped per unsynced append, so a sync landing
	// mid-append cannot clear dirty for bytes it did not cover
	syncing bool // a group-commit leader's fsync is in flight
	pending []walPending
	failed  error // sticky fail-stop cause; non-nil refuses mutations
	buf     []byte
	// seq numbers this shard's mutations within the current process
	// lifetime; it is never persisted. Replication identifies stream
	// positions by (runID, shard, seq) — see ReplHooks. Gaps are legal
	// (a failed batch consumes seqs that are never shipped); the
	// invariant is monotonicity.
	seq uint64
	// ship, when non-nil, receives every committed frame batch in log
	// order (see ReplHooks.Commit). Called with sh.mu held; it must
	// only copy the bytes out, never call back into the store.
	ship func(frames []byte, lastSeq uint64)
}

// Durable implements Store and the LockoutStore extension.
var (
	_ Store        = (*Durable)(nil)
	_ LockoutStore = (*Durable)(nil)
)

// walEntry is the JSON payload of one log record. Op distinguishes
// the mutation classes; exactly one of Rec / Failures / Key+Val
// carries the data.
type walEntry struct {
	// Op is "put" (store or overwrite Rec), "del" (remove User),
	// "lock" (set User's failed-attempt counter to Failures; 0
	// clears), "kv" (set Key's side-table blob to Val; empty Val
	// deletes), or "ckpt" (a generation marker; never a mutation).
	// This release writes no markers. Earlier releases put one at the
	// head of every rewritten log: with Full set by compaction, which
	// replays as a no-op, and without it by checkpoint rotation, whose
	// log recover refuses (see recover).
	Op       string            `json:"op"`
	User     string            `json:"user"`
	Rec      passpoints.Packed `json:"rec,omitzero"`
	Failures int               `json:"failures,omitempty"`
	// Key and Val carry a "kv" side-table write (see KVStore); an
	// empty Val deletes Key.
	Key string `json:"key,omitempty"`
	Val []byte `json:"val,omitempty"`
	// Ckpt is the nonzero generation id of a "ckpt" marker record.
	Ckpt uint64 `json:"ckpt,omitempty"`
	// Full marks a "ckpt" marker written by compaction: the log after
	// the marker is the complete state.
	Full bool `json:"full,omitempty"`
}

const (
	walOpPut  = "put"
	walOpDel  = "del"
	walOpLock = "lock"
	walOpKV   = "kv"
	walOpCkpt = "ckpt"
)

// walEntryKeys are walEntry's JSON member names in declaration order.
var walEntryKeys = canonjson.Keys[walEntry]()

// readWalEntry reads a log record's payload without reflection (see
// package canonjson); every string and blob is a copy, so the entry
// never aliases the replay buffer.
func readWalEntry(r *canonjson.Reader, e *walEntry) {
	r.Object(walEntryKeys, func(i int) {
		switch i {
		case 0:
			e.Op = r.Intern(walOpPut, walOpDel, walOpLock, walOpKV, walOpCkpt)
		case 1:
			e.User = r.Str()
		case 2:
			e.Rec = passpoints.ReadPacked(r)
		case 3:
			e.Failures = r.Int()
		case 4:
			e.Key = r.Str()
		case 5:
			e.Val = r.Bytes()
		case 6:
			e.Ckpt = r.Uint64()
		case 7:
			e.Full = r.Bool()
		}
	})
}

// walHeaderSize is the fixed per-record framing: a little-endian
// uint32 payload length followed by the IEEE CRC32 of the payload.
const walHeaderSize = 8

// walMaxRecord bounds a decoded record length. A corrupt length field
// must not make replay allocate gigabytes; no legitimate entry (one
// user record) approaches this.
const walMaxRecord = 1 << 26

// shardLogName returns the log file name for shard i.
func shardLogName(i int) string { return fmt.Sprintf("shard-%04d.wal", i) }

// OpenDurable opens (creating if needed) the append-log store rooted
// at directory dir and replays every shard's log into memory, one
// goroutine per shard (the shards share nothing, so recovery scales
// with cores). A log whose tail is torn — a partially written record
// from a crash — is truncated at the tear, recovering every fully
// appended record and dropping only the unacked tail. A directory an
// earlier release left holding a shard checkpoint file (shard-*.ckpt)
// is refused untouched: this release reads only logs, and opening
// without the checkpoint's records would lose them. Close flushes and
// releases the logs; an unclosed store's logs are still consistent
// (that is the point), but Close is how a clean shutdown syncs
// SyncNever data.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	return openDurable(dir, opts, defaultOpenFile)
}

// openDurable is OpenDurable with an injectable file opener (tests).
func openDurable(dir string, opts DurableOptions, openFile func(string) (walFile, error)) (*Durable, error) {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vault: creating %s: %w", dir, err)
	}
	// Checked before anything below writes to the directory.
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(ckpts) > 0 {
		return nil, fmt.Errorf("vault: %s holds checkpoint file %s, which this release cannot read; refusing to open without its records (export the store with an earlier release's Durable.SaveTo and import that snapshot into a fresh directory)", dir, ckpts[0])
	}
	meta, err := loadOrInitMeta(dir, opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = meta.Shards
	// A crash between CreateTemp and Rename (compaction, meta write,
	// or an earlier release's checkpoint and rotation) strands a temp
	// file; clean them up here or repeated crashes leak shard-sized
	// dead files forever. Safe: temps are only live inside a call
	// holding the shard lock, and no other store instance may share
	// the directory.
	for _, pat := range []string{".compact-*", ".meta-*", ".ckpt-*", ".rotate-*"} {
		if stale, _ := filepath.Glob(filepath.Join(dir, pat)); len(stale) > 0 {
			for _, f := range stale {
				_ = os.Remove(f)
			}
		}
	}
	d := &Durable{
		shardSet: newShardSet(opts.Shards),
		dir:      dir,
		opts:     opts,
		logs:     make([]walShard, opts.Shards),
		openFile: openFile,
		kick:     make(chan int, opts.Shards),
		stop:     make(chan struct{}),
	}
	d.epoch.Store(meta.Epoch)
	// Replay one goroutine per shard: the maps, files, and offsets are
	// all shard-private, so recovery time is the slowest shard, not
	// the sum (par returns the lowest-index failure, and every claimed
	// shard runs to completion, so closeFiles sees a consistent set).
	if err := par.ForEach(0, len(d.logs), func(i int) error {
		sh := &d.logs[i]
		sh.shard = &d.shards[i]
		sh.commit.L = &sh.mu
		sh.lockouts = make(map[string]int)
		sh.kv = make(map[string][]byte)
		sh.path = filepath.Join(dir, shardLogName(i))
		return sh.open(openFile)
	}); err != nil {
		d.closeFiles()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		d.closeFiles()
		return nil, err
	}
	if !opts.NoAutoCompact {
		d.bg.Add(1)
		go d.compactLoop()
	}
	if opts.Sync == SyncInterval {
		d.bg.Add(1)
		go d.syncLoop()
	}
	return d, nil
}

// open replays the shard's log (truncating a torn tail) and leaves the
// file open for appends.
func (sh *walShard) open(openFile func(string) (walFile, error)) error {
	f, err := openFile(sh.path)
	if err != nil {
		return fmt.Errorf("vault: opening %s: %w", sh.path, err)
	}
	sh.f = f
	if err := sh.recover(); err != nil {
		f.Close()
		sh.f = nil
		return err
	}
	return nil
}

// recover rebuilds the shard's maps by replaying its log, leaving the
// file truncated to the last intact record and positioned for
// appends. A marker without Full is what an earlier release wrote at
// the head of a log it rotated at a checkpoint: the records from
// before the rotation live only in a checkpoint file this release
// does not read, so recovery refuses the log rather than open with
// partial state.
func (sh *walShard) recover() error {
	n, off, err := replayLog(sh.f, func(e *walEntry) error {
		if e.Op == walOpCkpt && !e.Full {
			return fmt.Errorf("vault: %s is a rotated log (generation %d) but its checkpoint is missing; refusing to open with partial state", sh.path, e.Ckpt)
		}
		sh.apply(e)
		return nil
	})
	if err != nil {
		return err
	}
	sh.entries = n
	sh.off = off
	sh.wsize = off
	sh.lsize = off
	return nil
}

// apply folds one decoded entry into the shard's maps. Replay-time
// and (eagerly, with applyUndo) mutation-time both route through the
// same switch so live and replayed semantics cannot drift.
func (sh *walShard) apply(e *walEntry) {
	switch e.Op {
	case walOpPut:
		if e.Rec.User() != "" {
			sh.put(e.Rec)
		}
	case walOpDel:
		delete(sh.records, e.User)
	case walOpLock:
		if e.Failures > 0 {
			sh.lockouts[e.User] = e.Failures
		} else {
			delete(sh.lockouts, e.User)
		}
	case walOpKV:
		if e.Key != "" {
			if len(e.Val) > 0 {
				sh.kv[e.Key] = e.Val
			} else {
				delete(sh.kv, e.Key)
			}
		}
	case walOpCkpt:
		// an earlier release's generation marker, not a mutation
	}
}

// applyUndo applies e like apply and returns a closure that restores
// the touched key's prior state — the rollback a synced append runs
// when its fsync fails.
func (sh *walShard) applyUndo(e *walEntry) func() {
	undo := func() {}
	switch e.Op {
	case walOpPut:
		undo = sh.undoRecord(e.Rec.User())
	case walOpDel:
		undo = sh.undoRecord(e.User)
	case walOpLock:
		undo = undoFor(sh.lockouts, e.User)
	case walOpKV:
		undo = undoFor(sh.kv, e.Key)
	}
	sh.apply(e)
	return undo
}

// undoRecord captures user's record and returns a closure that puts
// it back under its own key (see shard.put).
func (sh *walShard) undoRecord(user string) func() {
	prev, had := sh.records[user]
	return func() {
		if had {
			sh.put(prev)
		} else {
			delete(sh.records, user)
		}
	}
}

// undoFor captures m[k]'s current state and returns a closure that
// puts it back.
func undoFor[V any](m map[string]V, k string) func() {
	prev, had := m[k]
	return func() {
		if had {
			m[k] = prev
		} else {
			delete(m, k)
		}
	}
}

// replayLog streams f's records from the start, calling apply for
// each intact one. At the first torn or corrupt record it truncates f
// there — dropping that record and everything after it — and seeks to
// the new end so the caller can append. It returns the number of
// intact records and the log length they occupy. A record whose
// checksum holds but whose payload does not decode is no torn write
// but a format this release refuses, so, like an error from apply, it
// stops the replay with an error before anything is truncated.
func replayLog(f walFile, apply func(*walEntry) error) (int, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("vault: seeking %s: %w", f.Name(), err)
	}
	var (
		r       = bufio.NewReader(f)
		off     int64 // start offset of the record being decoded
		n       int
		header  [walHeaderSize]byte
		payload []byte
	)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// io.EOF: clean end. ErrUnexpectedEOF: torn header.
			break
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > walMaxRecord {
			break // corrupt length field
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt payload
		}
		var e walEntry
		if err := canonjson.Unmarshal(payload, &e, readWalEntry); err != nil {
			return 0, 0, fmt.Errorf("vault: %s: record %d at offset %d does not decode: %w", f.Name(), n, off, err)
		}
		if err := apply(&e); err != nil {
			return 0, 0, err
		}
		off += walHeaderSize + int64(length)
		n++
	}
	// Never truncate silently: a crash's torn tail is under one
	// record, but a corrupt byte early in a big log discards every
	// acked record after it — the operator's only chance to reach for
	// a snapshot is this line, because the evidence is gone after the
	// truncate.
	if size, err := f.Seek(0, io.SeekEnd); err == nil && size > off {
		log.Printf("vault: %s: dropping %d bytes after record %d (torn or corrupt tail)",
			f.Name(), size-off, n)
	}
	if err := f.Truncate(off); err != nil {
		return 0, 0, fmt.Errorf("vault: truncating torn tail of %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("vault: seeking %s: %w", f.Name(), err)
	}
	return n, off, nil
}

// appendFrame appends e's log frame to buf: a little-endian uint32
// payload length and the payload's IEEE CRC32, then the payload, the
// bytes json.Marshal writes for e. The header is reserved, the payload
// encoded straight behind it, and the header filled in.
func appendFrame(buf []byte, e *walEntry) []byte {
	start := len(buf)
	buf = e.appendJSON(append(buf, make([]byte, walHeaderSize)...))
	payload := buf[start+walHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendJSON appends the bytes json.Marshal writes for e to b, without
// reflection.
func (e *walEntry) appendJSON(b []byte) []byte {
	b = canonjson.AppendString(append(b, `{"op":`...), e.Op)
	b = canonjson.AppendString(append(b, `,"user":`...), e.User)
	if !e.Rec.IsZero() {
		b = e.Rec.AppendJSON(append(b, `,"rec":`...))
	}
	if e.Failures != 0 {
		b = strconv.AppendInt(append(b, `,"failures":`...), int64(e.Failures), 10)
	}
	if e.Key != "" {
		b = canonjson.AppendString(append(b, `,"key":`...), e.Key)
	}
	if len(e.Val) > 0 {
		b = canonjson.AppendBase64(append(b, `,"val":`...), e.Val)
	}
	if e.Ckpt != 0 {
		b = strconv.AppendUint(append(b, `,"ckpt":`...), e.Ckpt, 10)
	}
	if e.Full {
		b = append(b, `,"full":true`...)
	}
	return append(b, '}')
}

// appendDirect is the shard's one append outside group commit, behind
// a mutation under SyncInterval or SyncNever, ImportJSON and
// ApplyReplFrames. It waits out any group commit, refuses a closed or
// fail-stopped shard, and writes frames — the encoding of entries, or
// nil to encode the single entry here — in one write call. A failed
// write truncates back to the pre-write offset so torn bytes never sit
// in front of later records; if even that rollback fails, the shard
// fail-stops — the file's write offset can no longer be trusted, and
// appending anyway would strand every later record behind a tear that
// replay truncates away. With synced, the entries are applied with
// their undos pending and the log is fsynced before the call returns;
// a failed fsync fail-stops the shard, and failStop rolls the entries
// back exactly as it does a failed group commit. Without, they are
// applied outright and the shard is marked dirty for the next flush.
// Either way the entries are counted and the frames shipped. Caller
// holds sh.mu.
func (sh *walShard) appendDirect(entries []walEntry, frames []byte, synced bool) error {
	sh.quiesce()
	if err := sh.writable(); err != nil {
		return err
	}
	if frames == nil {
		sh.buf = appendFrame(sh.buf[:0], &entries[0])
		frames = sh.buf
	}
	if _, err := sh.f.Write(frames); err != nil {
		werr := fmt.Errorf("vault: appending to %s: %w", sh.path, err)
		if rerr := sh.restore(sh.wsize); rerr != nil {
			sh.failStop(fmt.Errorf("%v; rollback failed: %v", werr, rerr))
		}
		return werr
	}
	sh.wsize += int64(len(frames))
	sh.lsize = sh.wsize
	sh.entries += len(entries)
	sh.seq += uint64(len(entries))
	if synced {
		for i := range entries {
			sh.pending = append(sh.pending, walPending{end: sh.wsize, undo: sh.applyUndo(&entries[i])})
		}
		if err := sh.f.Sync(); err != nil {
			sh.failStop(fmt.Errorf("vault: syncing %s: %w", sh.path, err))
			return sh.writable()
		}
	} else {
		for i := range entries {
			sh.apply(&entries[i])
		}
		sh.dirty = true
		sh.dirtyGen++
	}
	sh.commitTo(sh.wsize)
	if sh.ship != nil {
		sh.ship(frames, sh.seq)
	}
	return nil
}

// stage appends e's frame to the shard's in-memory batch buffer — the
// group-commit write path. The bytes reach the file when a batch
// leader flushes the buffer (awaitCommit); only the whole-batch
// failure paths can discard them, and those fail-stop the shard.
// Caller holds sh.mu.
func (sh *walShard) stage(e *walEntry) {
	n := len(sh.wbuf)
	sh.wbuf = appendFrame(sh.wbuf, e)
	sh.lsize += int64(len(sh.wbuf) - n)
	sh.entries++
	sh.seq++
}

// restore truncates the log to off and repositions the write offset
// there — the rollback after a failed append. Both steps must
// succeed: a truncate without the seek leaves the OS file offset
// beyond the end, and the next append would write mid-file garbage
// that replay cannot contain to the tail.
func (sh *walShard) restore(off int64) error {
	if err := sh.f.Truncate(off); err != nil {
		return fmt.Errorf("truncating %s to %d: %w", sh.path, off, err)
	}
	if _, err := sh.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("repositioning %s at %d: %w", sh.path, off, err)
	}
	return nil
}

// failStop marks the shard permanently failed (see ErrShardFailed),
// rolls back every pending record — map state and log bytes — and
// wakes all waiters so they observe the failure. Caller holds sh.mu.
func (sh *walShard) failStop(cause error) {
	if sh.failed == nil {
		sh.failed = cause
		log.Printf("vault: %v; shard %s fail-stopped (reads continue, mutations refused until restart)", cause, sh.path)
	}
	for i := len(sh.pending) - 1; i >= 0; i-- {
		sh.pending[i].undo()
	}
	sh.entries -= len(sh.pending)
	sh.pending = sh.pending[:0]
	sh.wbuf = sh.wbuf[:0]
	// Best effort: the shard refuses mutations from here on, but a
	// successful truncate keeps unacked bytes out of the log so a
	// restart replays exactly the committed prefix.
	_ = sh.restore(sh.off)
	sh.wsize = sh.off
	sh.lsize = sh.off
	sh.commit.Broadcast()
}

// writable returns nil when the shard can take a mutation, and
// otherwise the error it refuses one with: the store is closed, or the
// shard has fail-stopped (see ErrShardFailed). Caller holds sh.mu.
func (sh *walShard) writable() error {
	if sh.f == nil {
		return errClosed
	}
	if sh.failed != nil {
		return fmt.Errorf("%w (%s: %v)", ErrShardFailed, sh.path, sh.failed)
	}
	return nil
}

// commitTo marks everything below target durable: the committed
// offset advances and the covered pending records drop their undos —
// they are acked. Caller holds sh.mu.
func (sh *walShard) commitTo(target int64) {
	sh.off = target
	n := 0
	for n < len(sh.pending) && sh.pending[n].end <= target {
		n++
	}
	if n > 0 {
		rest := copy(sh.pending, sh.pending[n:])
		for i := rest; i < len(sh.pending); i++ {
			sh.pending[i] = walPending{} // release undo closures
		}
		sh.pending = sh.pending[:rest]
	}
}

// awaitCommit blocks until the record ending at logical offset myEnd
// is durable, or the batch fails. Callers arrive holding sh.mu with
// their record staged in wbuf and a pending entry queued; the first
// one to find no flush in flight becomes the batch leader: it takes
// the whole staged buffer, writes and fsyncs it outside the lock (so
// later writers keep staging — they form the next batch), and wakes
// everyone with the shared result. A failed batch write or fsync
// fails every waiter it covered and fail-stops the shard: the
// waiters' records are interleaved in one flush, so no single record
// can be cleanly retried, and after a failed fsync durability can no
// longer be proven at all (see ErrShardFailed).
func (sh *walShard) awaitCommit(myEnd int64) error {
	for {
		if sh.off >= myEnd {
			return nil // a leader's flush covered us
		}
		if sh.failed != nil {
			return sh.failed // our batch failed; maps already rolled back
		}
		if !sh.syncing {
			sh.syncing = true
			f := sh.f
			batch := sh.wbuf
			sh.wbuf = nil // writers arriving mid-flush stage a new buffer
			// Every staged record is in this batch, so the shard's seq
			// at take time is the batch's last record's seq — what the
			// replication ship needs to label the frames.
			lastSeq := sh.seq
			target := sh.wsize + int64(len(batch))
			sh.mu.Unlock()
			_, werr := f.Write(batch)
			var serr error
			if werr == nil {
				serr = f.Sync()
			}
			sh.mu.Lock()
			sh.syncing = false
			switch {
			case werr != nil:
				// The file may hold a partial batch; failStop's restore
				// truncates it back to the committed prefix.
				sh.failStop(fmt.Errorf("vault: appending batch to %s: %w", sh.path, werr))
			case serr != nil:
				sh.failStop(fmt.Errorf("vault: syncing %s: %w", sh.path, serr))
			default:
				sh.wsize = target
				sh.commitTo(target)
				// Ship only what an fsync covers, in strict log order:
				// leaders are serialized by `syncing`, and the hook runs
				// under the same lock hold that cleared it, so no later
				// batch can overtake this call.
				if sh.ship != nil && len(batch) > 0 {
					sh.ship(batch, lastSeq)
				}
			}
			sh.commit.Broadcast()
		} else {
			sh.commit.Wait()
		}
	}
}

// quiesce blocks until no group-commit fsync is in flight and no
// written record awaits one (off == wsize): the stable state
// compaction, appendDirect, flush and Close need before they touch
// the shard's file. Caller holds sh.mu; quiesce may release and
// reacquire it.
func (sh *walShard) quiesce() {
	for sh.syncing || len(sh.pending) > 0 {
		sh.commit.Wait()
	}
}

// live returns the shard's live entry count (records plus tracked
// lockout counters and side-table keys). Caller holds sh.mu.
func (sh *walShard) live() int { return len(sh.records) + len(sh.lockouts) + len(sh.kv) }

// needsCompact reports whether the shard's log has outgrown its live
// state: at least compactMinEntries entries, of which dead ones
// outnumber compactRatio× the live ones. Caller holds sh.mu.
func (sh *walShard) needsCompact() bool {
	live := sh.live()
	return sh.entries >= compactMinEntries && float64(sh.entries-live) > compactRatio*float64(max(live, 1))
}

// kickCompact nudges the background compactor to rewrite shard i. It
// never blocks: a busy compactor is re-kicked by a later write.
func (d *Durable) kickCompact(i int) {
	if d.opts.NoAutoCompact {
		return
	}
	select {
	case d.kick <- i:
	default:
	}
}

// Dir returns the store's log directory.
func (d *Durable) Dir() string { return d.dir }

// shardFor returns the log of key's shard and its index.
func (d *Durable) shardFor(key string) (*walShard, int) {
	i := d.index(key)
	return &d.logs[i], i
}

// errSkipAppend is returned by a mutate precondition to turn the call
// into an acked no-op (nothing appended, nothing applied).
var errSkipAppend = errors.New("vault: skip append")

// mutate is the local write path: under the shard lock it runs pre
// (which may refuse the mutation, or skip it via errSkipAppend), then
// logs e and applies it to the shard's maps — under SyncAlways by
// joining the shard's group commit, acking only once a shared fsync
// covers the record (rolling the map update back if the batch fails),
// and otherwise through appendDirect. It nudges the compactor when the
// shard's garbage crosses compactRatio.
func (d *Durable) mutate(user string, e walEntry, pre func(*walShard) error) error {
	if d.closed.Load() {
		return errClosed
	}
	es := []walEntry{e}
	sh, i := d.shardFor(user)
	sh.mu.Lock()
	// writable also catches Close winning the race between the
	// closed-flag check and the shard lock.
	err := sh.writable()
	if err == nil && pre != nil {
		err = pre(sh)
	}
	if err != nil {
		sh.mu.Unlock()
		if err == errSkipAppend {
			return nil
		}
		return err
	}
	var myseq uint64
	if d.opts.Sync == SyncAlways {
		sh.stage(&es[0])
		myseq = sh.seq
		sh.pending = append(sh.pending, walPending{end: sh.lsize, undo: sh.applyUndo(&es[0])})
		err = sh.awaitCommit(sh.lsize)
	} else {
		// The frame ships before the lock is released, so two writers'
		// frames reach the replication buffer in log order.
		err = sh.appendDirect(es, nil, false)
		myseq = sh.seq
	}
	needCompact := err == nil && sh.needsCompact()
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	if wait := d.replWait.Load(); wait != nil {
		// Quorum ack: block until the follower's fsync covers this
		// record. A wait failure errors the writer WITHOUT rolling back
		// or fail-stopping — the record is locally durable and the
		// stream will deliver it on reconnect, so state never diverges;
		// the caller just cannot claim replica coverage for it.
		if werr := (*wait)(i, myseq); werr != nil {
			return werr
		}
	}
	if needCompact {
		d.kickCompact(i)
	}
	return nil
}

// Put stores a copy of the record for a new user, appending it to the
// user's shard log before acking.
func (d *Durable) Put(rec *passpoints.Record) error {
	p, err := pack(rec)
	if err != nil {
		return err
	}
	return d.mutate(rec.User, walEntry{Op: walOpPut, Rec: p},
		func(sh *walShard) error {
			if _, ok := sh.records[rec.User]; ok {
				return ErrExists
			}
			return nil
		})
}

// Replace stores a copy of the record, overwriting any existing one
// (password change), appending before acking.
func (d *Durable) Replace(rec *passpoints.Record) error {
	p, err := pack(rec)
	if err != nil {
		return err
	}
	return d.mutate(rec.User, walEntry{Op: walOpPut, Rec: p}, nil)
}

// Delete removes a user's record; deleting a missing user is a no-op
// and appends nothing.
func (d *Durable) Delete(user string) {
	_ = d.mutate(user, walEntry{Op: walOpDel, User: user},
		func(sh *walShard) error {
			if _, ok := sh.records[user]; !ok {
				return errSkipAppend
			}
			return nil
		})
}

// SetLockout durably sets user's failed-attempt counter; failures <= 0
// clears it (a no-op append is skipped when the shard holds no counter
// for user). It implements LockoutStore: the auth service writes every
// counter change through here so lockout state — the §5.1
// online-attack defense — survives a restart instead of resetting to a
// fresh attempt budget.
func (d *Durable) SetLockout(user string, failures int) error {
	if user == "" {
		return fmt.Errorf("vault: lockout entry must name a user")
	}
	if failures > 0 {
		return d.mutate(user, walEntry{Op: walOpLock, User: user, Failures: failures}, nil)
	}
	return d.mutate(user, walEntry{Op: walOpLock, User: user},
		func(sh *walShard) error {
			if _, ok := sh.lockouts[user]; !ok {
				return errSkipAppend
			}
			return nil
		})
}

// SetKV durably sets key's side-table blob to val, appending the write
// to key's shard log (FNV32a(key), the same split as records) before
// acking — so the blob survives a crash, rides compaction, and
// replicates to a follower exactly like a record. An empty or nil val
// deletes the key (a no-op append is skipped when the key is already
// absent). It implements the KVStore extension; the session tier
// persists its signing keys and revocation watermarks through here.
func (d *Durable) SetKV(key string, val []byte) error {
	if key == "" {
		return fmt.Errorf("vault: kv entry must have a key")
	}
	if len(val) == 0 {
		return d.mutate(key, walEntry{Op: walOpKV, Key: key},
			func(sh *walShard) error {
				if _, ok := sh.kv[key]; !ok {
					return errSkipAppend
				}
				return nil
			})
	}
	// Copy val: the caller may reuse its buffer, and the shard map (and
	// a staged-but-unflushed log frame's JSON) must not alias it.
	v := make([]byte, len(val))
	copy(v, val)
	return d.mutate(key, walEntry{Op: walOpKV, Key: key, Val: v}, nil)
}

// GetKV returns a copy of key's side-table blob and whether it exists.
func (d *Durable) GetKV(key string) ([]byte, bool) {
	sh, _ := d.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.kv[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// KVRange returns a copy of every side-table entry whose key starts
// with prefix ("" for all). Per-shard-consistent like Snapshot.
func (d *Durable) KVRange(prefix string) map[string][]byte {
	out := make(map[string][]byte)
	for i := range d.logs {
		sh := &d.logs[i]
		sh.mu.RLock()
		for k, v := range sh.kv {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				c := make([]byte, len(v))
				copy(c, v)
				out[k] = c
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// SetKVWatch installs (or with nil removes) the observer for
// side-table keys changed by replication (ApplyReplFrames and
// InstallShardSnapshot; val is nil for a deletion). The callback runs
// after every store lock is released, so it may call back into the
// store; it must tolerate duplicate and out-of-date deliveries (a
// snapshot install re-delivers every key it carries). Local SetKV
// calls are not observed — see the field comment on kvWatch.
func (d *Durable) SetKVWatch(fn func(key string, val []byte)) {
	if fn == nil {
		d.kvWatch.Store(nil)
		return
	}
	d.kvWatch.Store(&fn)
}

// Lockouts returns a copy of every persisted failed-attempt counter.
func (d *Durable) Lockouts() map[string]int {
	out := make(map[string]int)
	for i := range d.logs {
		sh := &d.logs[i]
		sh.mu.RLock()
		for u, n := range sh.lockouts {
			out[u] = n
		}
		sh.mu.RUnlock()
	}
	return out
}

// Save fsyncs every shard log. Durability is continuous for this
// backend — the logs ARE the backing file — so Save's contract
// ("persist current state") reduces to flushing whatever the sync
// policy has deferred. The fsyncs run outside the shard locks, so a
// slow disk stalls Save, not concurrent appends; a failed fsync
// fail-stops the shard like any other (ErrShardFailed).
func (d *Durable) Save() error {
	for i := range d.logs {
		if err := d.logs[i].flush(true); err != nil {
			return err
		}
	}
	return nil
}

// flush fsyncs the shard's log — the one per-shard flush behind Save
// and the SyncInterval flusher; without force, a shard with no
// unsynced appends is skipped. The fsync runs outside the shard lock,
// and dirty is cleared through a generation counter, so an append
// landing mid-sync keeps the shard dirty for the next flush. A failed
// fsync fail-stops the shard: retrying would trust a kernel that may
// already have dropped the dirty pages, silently turning acked data
// non-durable.
func (sh *walShard) flush(force bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.quiesce()
	if err := sh.writable(); err != nil {
		return err
	}
	if !force && !sh.dirty {
		return nil
	}
	f, gen := sh.f, sh.dirtyGen
	sh.mu.Unlock()
	err := f.Sync()
	sh.mu.Lock()
	if err != nil {
		err = fmt.Errorf("vault: syncing %s: %w", sh.path, err)
		// Unless compaction already replaced (and fsynced) the file we
		// failed to sync, the shard's durability can no longer be
		// proven.
		if sh.f == f && sh.failed == nil {
			sh.failStop(err)
		}
		return err
	}
	if sh.f == f && sh.dirtyGen == gen {
		sh.dirty = false
	}
	return nil
}

// ImportJSON loads a JSON snapshot (the format Sharded and SaveTo
// write) into an empty durable store, appending every record to its
// shard log — the in-place migration path for a deployment moving off
// the in-memory backend. It refuses to import over existing records.
// Records are appended unsynced and flushed once per shard at the
// end: per-record durability buys nothing here (a failed import is
// retried from the snapshot anyway), and one fsync per shard instead
// of per user keeps a million-record migration in seconds, not
// hours.
func (d *Durable) ImportJSON(path string) error {
	if d.Len() > 0 {
		return fmt.Errorf("vault: ImportJSON into non-empty store")
	}
	recs, err := loadRecords(path)
	if err != nil {
		return err
	}
	for _, p := range recs {
		// loadRecords already validated non-nil records and distinct,
		// non-empty users.
		sh, _ := d.shardFor(p.User())
		sh.mu.Lock()
		err := sh.appendDirect([]walEntry{{Op: walOpPut, Rec: p}}, nil, false)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return d.Save()
}

// Compact synchronously rewrites every shard's log from its live maps,
// discarding dead records. (It rewrites the logs themselves; SaveTo
// writes the JSON snapshot.)
func (d *Durable) Compact() error {
	for i := range d.logs {
		if err := d.CompactShard(i); err != nil {
			return err
		}
	}
	return nil
}

// CompactShard rewrites shard i's log from its live maps (see
// encodeState and replaceLogLocked): a crash mid-compaction leaves the
// previous log intact, and the next open removes the stranded temp
// file. The shard is write-locked for the duration.
func (d *Durable) CompactShard(i int) error {
	if i < 0 || i >= len(d.logs) {
		return fmt.Errorf("vault: no shard %d", i)
	}
	sh := &d.logs[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Wait out any in-flight group commit: the batch's fsync targets
	// the file we are about to replace.
	sh.quiesce()
	if err := sh.writable(); err != nil {
		return err
	}
	frames, n := encodeState(sh.records, sh.lockouts, sh.kv)
	_, err := d.replaceLogLocked(i, sh, frames, n)
	return err
}

// encodeState frames a shard's live state as log entries — every
// record, then every lockout counter, then every side-table entry, each
// group in key order — and returns the frames and their entry count.
// It is the log compaction writes and the snapshot a follower
// bootstraps from (see ShardSnapshot), so replaying it rebuilds exactly
// the maps it was encoded from.
func encodeState(records map[string]passpoints.Packed, lockouts map[string]int, kv map[string][]byte) ([]byte, int) {
	var frames []byte
	for _, user := range slices.Sorted(maps.Keys(records)) {
		frames = appendFrame(frames, &walEntry{Op: walOpPut, Rec: records[user]})
	}
	for _, user := range slices.Sorted(maps.Keys(lockouts)) {
		frames = appendFrame(frames, &walEntry{Op: walOpLock, User: user, Failures: lockouts[user]})
	}
	for _, key := range slices.Sorted(maps.Keys(kv)) {
		frames = appendFrame(frames, &walEntry{Op: walOpKV, Key: key, Val: kv[key]})
	}
	return frames, len(records) + len(lockouts) + len(kv)
}

// replaceLogLocked makes frames, n whole entries, shard i's log — the
// one log replacement, behind compaction and snapshot install. The
// frames go to a temp file, which is fsynced and renamed over the old
// log; the log is then reopened by path and positioned at its end, and
// the directory fsynced. A crash at any point recovers either the old
// log or the new one, never a blend. It reports whether the rename
// committed the new log: from then on the shard's maps must describe
// frames, even when a later step fails (a failed reopen fail-stops the
// shard). Caller holds sh.mu with the shard quiesced.
func (d *Durable) replaceLogLocked(i int, sh *walShard, frames []byte, n int) (bool, error) {
	tmp, err := os.CreateTemp(d.dir, ".compact-*")
	if err != nil {
		return false, fmt.Errorf("vault: compaction temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(frames); err != nil {
		err = fmt.Errorf("vault: writing %s: %w", tmpName, err)
	} else if err = tmp.Sync(); err != nil {
		err = fmt.Errorf("vault: syncing %s: %w", tmpName, err)
	} else {
		if hook := d.testCrashBeforeCompactRename; hook != nil {
			hook(i)
		}
		if err = os.Rename(tmpName, sh.path); err != nil {
			err = fmt.Errorf("vault: committing %s: %w", sh.path, err)
		}
	}
	// Reopen the log by path rather than keeping tmp's descriptor.
	// The rename doesn't invalidate it, but fsyncs on a descriptor
	// whose inode was renamed into place have been observed to wedge
	// in the kernel under concurrent load on some filesystems; a
	// fresh open by the final path sidesteps that entirely.
	tmp.Close()
	if err != nil {
		os.Remove(tmpName)
		return false, err
	}
	newOff := int64(len(frames))
	nf, err := d.openFile(sh.path)
	if err == nil {
		if _, err = nf.Seek(newOff, io.SeekStart); err != nil {
			nf.Close()
		}
	}
	if err != nil {
		// The new log is durably in place but we cannot append to it:
		// the shard's file state is unusable.
		err = fmt.Errorf("vault: reopening rewritten %s: %w", sh.path, err)
		sh.failStop(err)
		return true, err
	}
	old := sh.f
	sh.f = nf
	sh.off = newOff
	sh.wsize = newOff
	sh.lsize = newOff
	sh.entries = n
	sh.dirty = false
	old.Close()
	return true, syncDir(d.dir)
}

// compactLoop is the background compactor: it waits for shard indexes
// kicked by writers and rewrites those logs. One log rewrite at a
// time keeps the I/O burst bounded.
func (d *Durable) compactLoop() {
	defer d.bg.Done()
	for {
		select {
		case <-d.stop:
			return
		case i := <-d.kick:
			// Re-check under the lock via CompactShard? The ratio may
			// have been reset by an interleaved manual Compact; a
			// redundant rewrite is merely wasted I/O, not a bug.
			_ = d.CompactShard(i)
		}
	}
}

// syncLoop is the SyncInterval flusher: every syncPeriod it flushes
// the shards with unsynced appends. A closed or fail-stopped shard is
// skipped, and a failed fsync has already fail-stopped its shard, so
// there is no error left to act on.
func (d *Durable) syncLoop() {
	defer d.bg.Done()
	t := time.NewTicker(syncPeriod)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			for i := range d.logs {
				_ = d.logs[i].flush(false)
			}
		}
	}
}

// Close stops the background goroutines, fsyncs every log, and closes
// the files. The store must not be used after Close; mutations on a
// closed store fail.
func (d *Durable) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.bg.Wait()
	var firstErr error
	for i := range d.logs {
		sh := &d.logs[i]
		sh.mu.Lock()
		if sh.f != nil {
			sh.quiesce() // drain any in-flight group commit first
			if sh.failed == nil {
				if err := sh.f.Sync(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if err := sh.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// closeFiles releases shard files after a failed open, before any
// background goroutine exists.
func (d *Durable) closeFiles() {
	for i := range d.logs {
		if f := d.logs[i].f; f != nil {
			f.Close()
		}
	}
}

// walMeta is the meta.json document pinning the directory's layout
// and replication identity.
type walMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// Epoch is the store's monotonic replication epoch (see Epoch /
	// SetEpoch); 0 — including its absence from pre-replication
	// directories — means "never participated in a failover".
	Epoch uint64 `json:"epoch,omitempty"`
}

// loadOrInitMeta reads the directory's metadata, writing meta.json
// (atomically, before any log exists) on first creation. An existing
// directory's shard count always wins over the caller's request — the
// logs were partitioned under it.
func loadOrInitMeta(dir string, want int) (walMeta, error) {
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	if err == nil {
		var m walMeta
		if err := json.Unmarshal(data, &m); err != nil {
			return walMeta{}, fmt.Errorf("vault: parsing %s: %w", path, err)
		}
		if m.Shards <= 0 {
			return walMeta{}, fmt.Errorf("vault: %s has invalid shard count %d", path, m.Shards)
		}
		return m, nil
	}
	if !os.IsNotExist(err) {
		return walMeta{}, fmt.Errorf("vault: reading %s: %w", path, err)
	}
	// Fresh directory — but refuse to guess if logs are already there
	// (a hand-deleted meta.json must not silently re-partition them).
	if logs, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal")); len(logs) > 0 {
		return walMeta{}, fmt.Errorf("vault: %s has shard logs but no meta.json", dir)
	}
	m := walMeta{Version: 1, Shards: want}
	if err := writeMetaFile(dir, m); err != nil {
		return walMeta{}, err
	}
	return m, nil
}

// writeMetaFile durably rewrites the directory's meta.json: temp file,
// fsync, rename, directory fsync.
func writeMetaFile(dir string, m walMeta) error {
	path := filepath.Join(dir, "meta.json")
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".meta-*")
	if err != nil {
		return fmt.Errorf("vault: meta temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("vault: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("vault: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("vault: committing %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so file creations and renames inside it
// are themselves durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("vault: opening %s for sync: %w", dir, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("vault: syncing %s: %w", dir, err)
	}
	return nil
}
