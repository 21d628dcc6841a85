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
// Every append — a local mutation, ImportJSON, a replicated batch —
// goes through one group commit (see walShard.appendLog): each writer
// stages its frames under the shard lock, and the writers coalesce
// into batches that one leader writes, and fsyncs when any record in
// the batch asked for it (a mutation under SyncAlways, a replicated
// batch on a SyncAlways follower). So N concurrent mutations cost one
// write and one fsync, not N of each. A failed write whose rollback
// restores the committed offset fails every pending record and leaves
// the shard writable. A failed rollback or a failed fsync also
// fail-stops the shard (see ErrShardFailed): durability claims after a
// kernel writeback error are unverifiable, so the shard refuses
// further mutations rather than ack them.
//
// Note one visibility caveat of group commit: a mutation becomes
// readable (Get/Users/Snapshot) the moment it is staged, before the
// write and the shared fsync that ack it. If its batch fails, the map
// updates are rolled back — a reader can briefly observe a mutation
// that is then refused, but never one that silently survives un-acked.
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

// walBatch is the outcome of one staged batch, shared by the writers
// that wait on it: settled once, by the leader that writes the batch
// or by the rollback that discards it. Waiters read the outcome rather
// than the log offsets, because once a rolled-back write leaves the
// shard writable a later batch can commit past a failed waiter's
// bytes.
type walBatch struct {
	done bool
	err  error
}

// walBufKeep caps the staging buffer a shard keeps for reuse: a
// buffer that grew past it (a large replicated catch-up batch) is
// released after its write rather than pinned per shard.
const walBufKeep = 64 << 10

// walShard is the log of one shard of the set: the shard's lockouts
// and KV, its file and offsets. It takes the shard's lock, whose
// write side covers the records, the maps here, the file and all
// offsets, and whose read side every Durable read takes. The commit
// condvar (sharing the write lock) coordinates group commit: writers
// stage their frames in wbuf under the lock, and one of them — the
// batch leader — writes the whole buffer and wakes everyone with the
// shared result. A batch that needs an fsync is written and fsynced
// outside the lock, so later writers keep staging the next batch;
// one that does not is written under the lock.
// Staging in memory rather than writing through matters beyond the
// saved syscalls: an fsync racing concurrent appends to the same
// inode degrades badly on journaling filesystems (the flush chases
// freshly dirtied pages), so exactly one goroutine — the leader —
// ever writes the file while a sync is possible.
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
	// off is the committed log length: every byte below it belongs to
	// a written batch (fsynced when the batch asked for it). A leader
	// in flight writes from off; a failed write truncates back to it.
	off   int64
	wbuf  []byte    // staged frames awaiting the next batch leader
	spare []byte    // idle buffer; becomes wbuf while a leader writes the old one
	wsync bool      // a record staged in wbuf asked for an fsync
	next  *walBatch // outcome of the batch in wbuf, once a writer waits on it
	// pending holds, for every staged record not yet committed, the
	// entry that undoes its map update, oldest first.
	pending []walEntry
	// entries counts records in the log since its last rewrite.
	entries  int
	dirty    bool   // has unsynced appends (SyncInterval bookkeeping)
	dirtyGen uint64 // bumped per unsynced append, so a sync landing
	// mid-append cannot clear dirty for bytes it did not cover
	syncing bool  // a leader is writing and fsyncing outside the lock
	failed  error // sticky fail-stop cause; non-nil refuses mutations
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

// walEntry is one log record, decoded. Op distinguishes the mutation
// classes; exactly one of Rec / Failures / Key+Val carries the data.
// This release writes each as a binary payload (see appendPayload) and
// decodes both that and the JSON payload earlier releases wrote (see
// decodePayload); the struct tags name the JSON members.
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

// The tags that open a binary payload, one per op this release writes.
// None is '{', which opens every JSON payload.
const (
	walTagPut byte = 1 + iota
	walTagDel
	walTagLock
	walTagKV
)

// walEntryKeys are walEntry's JSON member names in declaration order.
var walEntryKeys = canonjson.Keys[walEntry]()

// readWalEntry reads a JSON log payload, as releases before binary
// payloads wrote it, without reflection (see package canonjson); every
// string and blob is a copy, so the entry never aliases the replay
// buffer.
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

// appendPayload appends e's binary payload to b: its op's tag, then a
// put's packed record, which names its user; a del's user; a lock's
// failure count as a zigzag varint, then its user; or a kv's key length
// as a uvarint, its key and its value. Every op this release writes has
// a tag; a generation marker has none.
func appendPayload(b []byte, e *walEntry) []byte {
	switch e.Op {
	case walOpPut:
		return e.Rec.Append(append(b, walTagPut))
	case walOpDel:
		return append(append(b, walTagDel), e.User...)
	case walOpLock:
		return append(binary.AppendVarint(append(b, walTagLock), int64(e.Failures)), e.User...)
	case walOpKV:
		b = binary.AppendUvarint(append(b, walTagKV), uint64(len(e.Key)))
		return append(append(b, e.Key...), e.Val...)
	}
	panic("vault: no binary payload for log op " + e.Op)
}

// payloadSize returns the length of e's binary payload (see
// appendPayload) without encoding it.
func payloadSize(e *walEntry) int {
	var v [binary.MaxVarintLen64]byte
	switch e.Op {
	case walOpPut:
		return 1 + e.Rec.Len()
	case walOpDel:
		return 1 + len(e.User)
	case walOpLock:
		return 1 + len(binary.AppendVarint(v[:0], int64(e.Failures))) + len(e.User)
	}
	return 1 + len(binary.AppendUvarint(v[:0], uint64(len(e.Key)))) + len(e.Key) + len(e.Val)
}

// checkPayloadSize refuses e, with its size, when its binary payload
// would exceed walMaxRecord.
func checkPayloadSize(e *walEntry) error {
	if n := payloadSize(e); n > walMaxRecord {
		return fmt.Errorf("vault: %s entry of %d bytes exceeds the %d-byte log record limit", e.Op, n, walMaxRecord)
	}
	return nil
}

// errBadPayload refuses a binary payload appendPayload cannot have
// written.
var errBadPayload = errors.New("vault: malformed binary log payload")

// decodePayload decodes one log record's payload into e. A payload that
// opens with '{' is JSON, as every release before binary payloads wrote
// it (generation markers included), and goes to readWalEntry. Any other
// must be exactly what appendPayload writes for some entry: a known tag,
// minimal varints, a key no longer than the payload, and for a put the
// bytes passpoints.ParsePacked accepts. Strings and blobs are copies, as
// readWalEntry's are, and an empty kv value decodes as nil: a deletion.
func decodePayload(payload []byte, e *walEntry) error {
	if len(payload) == 0 {
		return errBadPayload
	}
	if payload[0] == '{' {
		return canonjson.Unmarshal(payload, e, readWalEntry)
	}
	body := payload[1:]
	switch payload[0] {
	case walTagPut:
		rec, err := passpoints.ParsePacked(body)
		if err != nil {
			return err
		}
		*e = walEntry{Op: walOpPut, Rec: rec}
	case walTagDel:
		*e = walEntry{Op: walOpDel, User: string(body)}
	case walTagLock:
		f, n := binary.Varint(body)
		if !minimalVarint(body, n) {
			return errBadPayload
		}
		*e = walEntry{Op: walOpLock, User: string(body[n:]), Failures: int(f)}
	case walTagKV:
		k, n := binary.Uvarint(body)
		if !minimalVarint(body, n) || k > uint64(len(body)-n) {
			return errBadPayload
		}
		key, val := body[n:n+int(k)], body[n+int(k):]
		*e = walEntry{Op: walOpKV, Key: string(key)}
		if len(val) > 0 {
			e.Val = slices.Clone(val)
		}
	default:
		return fmt.Errorf("vault: unknown log payload tag %#x", payload[0])
	}
	return nil
}

// minimalVarint reports whether binary.Varint or Uvarint read a varint
// of n > 0 bytes from the head of b that is as short as it can be: one
// byte, or a last byte that is not zero.
func minimalVarint(b []byte, n int) bool { return n == 1 || n > 1 && b[n-1] != 0 }

// walHeaderSize is the fixed per-record framing: a little-endian
// uint32 payload length followed by the IEEE CRC32 of the payload.
const walHeaderSize = 8

// walMaxRecord bounds a record's payload length. A corrupt length field
// must not make replay allocate gigabytes, and replay reads a longer
// one as exactly that, so appendLog refuses an entry whose payload
// would exceed it.
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
	return nil
}

// apply folds one decoded entry into the shard's maps. Replay, the
// append path and its rollback (applying undoEntry's inverse) all
// route through the same switch, so live and replayed semantics cannot
// drift.
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

// undoEntry returns the entry that, applied, restores the state e is
// about to change: the touched key's prior record, counter or blob, or
// its deletion when it had none. Caller holds sh.mu.
func (sh *walShard) undoEntry(e *walEntry) walEntry {
	switch e.Op {
	case walOpPut, walOpDel:
		user := e.User
		if e.Op == walOpPut {
			user = e.Rec.User()
		}
		if prev, ok := sh.records[user]; ok {
			return walEntry{Op: walOpPut, Rec: prev}
		}
		return walEntry{Op: walOpDel, User: user}
	case walOpLock:
		return walEntry{Op: walOpLock, User: e.User, Failures: sh.lockouts[e.User]}
	case walOpKV:
		return walEntry{Op: walOpKV, Key: e.Key, Val: sh.kv[e.Key]}
	}
	return walEntry{}
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
		if err := decodePayload(payload, &e); err != nil {
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
// payload length and the payload's IEEE CRC32, then the binary payload
// (see appendPayload). The header is reserved, the payload encoded
// straight behind it, and the header filled in.
func appendFrame(buf []byte, e *walEntry) []byte {
	start := len(buf)
	buf = appendPayload(append(buf, make([]byte, walHeaderSize)...), e)
	payload := buf[start+walHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendLog is the shard's one append path, behind every local
// mutation, ImportJSON and ApplyReplFrames. It refuses a closed or
// fail-stopped shard, and entries to encode of which one has a payload
// over walMaxRecord, which replay would take for a corrupt length and
// drop with every record after it. It stages frames — the encoding of
// entries, or nil to encode them here — behind any batch in flight,
// applies the entries with their undos pending, and waits in
// awaitCommit until a batch leader has written them, and fsynced them
// when sync is set or another record in the batch asked for it. It
// returns the seq of the call's last entry, taken when the entries are
// staged, so a quorum wait covers exactly them. Caller holds sh.mu;
// appendLog may release and reacquire it.
func (sh *walShard) appendLog(entries []walEntry, frames []byte, sync bool) (uint64, error) {
	if err := sh.writable(); err != nil {
		return 0, err
	}
	if frames == nil {
		for i := range entries {
			if err := checkPayloadSize(&entries[i]); err != nil {
				return 0, err
			}
		}
		for i := range entries {
			sh.wbuf = appendFrame(sh.wbuf, &entries[i])
		}
	} else {
		sh.wbuf = append(sh.wbuf, frames...)
	}
	for i := range entries {
		sh.pending = append(sh.pending, sh.undoEntry(&entries[i]))
		sh.apply(&entries[i])
	}
	sh.wsync = sh.wsync || sync
	sh.entries += len(entries)
	sh.seq += uint64(len(entries))
	seq := sh.seq // later writers advance sh.seq during the wait
	return seq, sh.awaitCommit()
}

// awaitCommit blocks until the batch holding the caller's staged
// records is settled, and returns its outcome. While a leader is out,
// the caller waits on the outcome of the batch staged behind it. The
// first writer to find no leader in flight leads: it takes every
// staged frame, its own among them, and writes them at the committed
// offset — under the lock when no record asked for an fsync, and
// otherwise outside it followed by one fsync, so later writers keep
// staging the next batch. It then settles the batch for every waiter
// and ships the frames, in log order because leaders take turns. A
// failed write whose truncate-and-seek rollback succeeds fails every
// pending record and leaves the shard writable (see abort); a failed
// rollback or fsync fail-stops the shard (see failStop), and so does a
// leader that lands to find the shard fail-stopped during its flight.
// Caller holds sh.mu.
func (sh *walShard) awaitCommit() error {
	var mine *walBatch
	for sh.syncing {
		if mine == nil {
			if sh.next == nil {
				sh.next = new(walBatch)
			}
			mine = sh.next
		}
		sh.commit.Wait()
		if mine.done {
			return mine.err
		}
	}
	// A leader settles its batch before it clears syncing, so every
	// pending undo belongs to a record staged in wbuf.
	batch, waiters, synced := sh.wbuf, sh.next, sh.wsync
	n, lastSeq, f := len(sh.pending), sh.seq, sh.f
	sh.next, sh.wsync = nil, false
	var werr, serr error
	if synced {
		sh.syncing = true
		sh.wbuf = sh.spare[:0]
		sh.mu.Unlock()
		_, werr = f.Write(batch)
		if werr == nil {
			serr = f.Sync()
		}
		sh.mu.Lock()
		sh.syncing = false
	} else {
		_, werr = f.Write(batch)
	}
	var err error
	switch {
	case sh.failed != nil:
		// A flush's fsync failed during the flight (see flush). It
		// synced the same open file, and the kernel reports a writeback
		// error once per open file, so this batch's pages may be lost
		// whatever its own write and fsync returned.
		sh.failStop(sh.failed)
		err = sh.writable()
	case werr != nil:
		err = fmt.Errorf("vault: appending to %s: %w", sh.path, werr)
		if rerr := sh.restore(sh.off); rerr != nil {
			// The file's write offset can no longer be trusted:
			// appending anyway would strand every later record behind a
			// tear that replay truncates away.
			sh.failStop(fmt.Errorf("%v; rollback failed: %v", err, rerr))
			err = sh.writable()
		} else {
			sh.abort(err)
		}
	case serr != nil:
		sh.failStop(fmt.Errorf("vault: syncing %s: %w", sh.path, serr))
		err = sh.writable()
	default:
		sh.off += int64(len(batch))
		rest := copy(sh.pending, sh.pending[n:])
		clear(sh.pending[rest:])
		sh.pending = sh.pending[:rest]
		if !synced {
			sh.dirty = true
			sh.dirtyGen++
		}
		if sh.ship != nil {
			sh.ship(batch, lastSeq)
		}
	}
	if cap(batch) > walBufKeep {
		batch = nil
	}
	if synced {
		sh.spare = batch[:0]
	} else {
		sh.wbuf = batch[:0]
	}
	if waiters != nil {
		waiters.done, waiters.err = true, err
	}
	sh.commit.Broadcast()
	return err
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

// abort rolls back every pending record: the batch whose write failed
// and any batch staged behind it, whose map updates sit on top of it.
// It applies their undos newest first, drops their staged frames, and
// settles the staged batch with err. Caller holds sh.mu with no leader
// in flight.
func (sh *walShard) abort(err error) {
	for i := len(sh.pending) - 1; i >= 0; i-- {
		sh.apply(&sh.pending[i])
	}
	sh.entries -= len(sh.pending)
	clear(sh.pending)
	sh.pending = sh.pending[:0]
	sh.wbuf, sh.wsync = sh.wbuf[:0], false
	if sh.next != nil {
		sh.next.done, sh.next.err = true, err
		sh.next = nil
	}
}

// failStop marks the shard permanently failed (see ErrShardFailed),
// which refuses every new mutation at once, rolls back every pending
// record — map state and log bytes — and wakes all waiters so they
// observe ErrShardFailed. With a leader in flight it only marks the
// shard: the leader rolls back when it lands (see awaitCommit), rather
// than have its batch undone and truncated under it. Caller holds
// sh.mu.
func (sh *walShard) failStop(cause error) {
	if sh.failed == nil {
		sh.failed = cause
		log.Printf("vault: %v; shard %s fail-stopped (reads continue, mutations refused until restart)", cause, sh.path)
	}
	if sh.syncing {
		return
	}
	sh.abort(sh.writable())
	// Best effort: the shard refuses mutations from here on, but a
	// successful truncate keeps unacked bytes out of the log so a
	// restart replays exactly the committed prefix.
	_ = sh.restore(sh.off)
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

// quiesce blocks until no leader is in flight and no staged record
// awaits one: the stable state compaction, snapshots, flush and Close
// need before they touch the shard's file. Caller holds sh.mu; quiesce
// may release and reacquire it.
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
// appends e through appendLog, fsynced under SyncAlways. It nudges the
// compactor when the shard's garbage crosses compactRatio.
func (d *Durable) mutate(user string, e walEntry, pre func(*walShard) error) error {
	if d.closed.Load() {
		return errClosed
	}
	sh, i := d.shardFor(user)
	var seq uint64
	sh.mu.Lock()
	// writable also catches Close winning the race between the
	// closed-flag check and the shard lock.
	err := sh.writable()
	if err == nil && pre != nil {
		err = pre(sh)
	}
	if err == nil {
		seq, err = sh.appendLog([]walEntry{e}, nil, d.opts.Sync == SyncAlways)
	}
	needCompact := err == nil && sh.needsCompact()
	sh.mu.Unlock()
	if err == errSkipAppend {
		return nil
	}
	if err != nil {
		return err
	}
	if wait := d.replWait.Load(); wait != nil {
		// Quorum ack: block until the follower's fsync covers this
		// record. A wait failure errors the writer WITHOUT rolling back
		// or fail-stopping — the record is locally durable and the
		// stream will deliver it on reconnect, so state never diverges;
		// the caller just cannot claim replica coverage for it.
		if werr := (*wait)(i, seq); werr != nil {
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
	// Refuse an oversized value before copying it: the caller may reuse
	// its buffer, and the shard map keeps the slice it is given.
	e := walEntry{Op: walOpKV, Key: key, Val: val}
	if err := checkPayloadSize(&e); err != nil {
		return err
	}
	e.Val = slices.Clone(val)
	return d.mutate(key, e, nil)
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
		// proven. A leader that went out meanwhile fails its batch
		// when it lands (see failStop).
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
// Records are appended unsynced, whatever the policy, and flushed
// once per shard at the end: per-record durability buys nothing here
// (a failed import is retried from the snapshot anyway), and one fsync
// per shard instead of per user keeps a million-record migration in
// seconds, not hours.
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
		_, err := sh.appendLog([]walEntry{{Op: walOpPut, Rec: p}}, nil, false)
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
// the maps it was encoded from. It walks the entries twice: the first
// pass sums their frames' lengths, and the second encodes the frames
// into one buffer of exactly that size, which growing by append would
// copy over and over.
func encodeState(records map[string]passpoints.Packed, lockouts map[string]int, kv map[string][]byte) ([]byte, int) {
	users := slices.Sorted(maps.Keys(records))
	locked := slices.Sorted(maps.Keys(lockouts))
	keys := slices.Sorted(maps.Keys(kv))
	var frames []byte
	size := 0
	for sizing := true; ; sizing = false {
		add := func(e walEntry) {
			if sizing {
				size += walHeaderSize + payloadSize(&e)
			} else {
				frames = appendFrame(frames, &e)
			}
		}
		for _, user := range users {
			add(walEntry{Op: walOpPut, Rec: records[user]})
		}
		for _, user := range locked {
			add(walEntry{Op: walOpLock, User: user, Failures: lockouts[user]})
		}
		for _, key := range keys {
			add(walEntry{Op: walOpKV, Key: key, Val: kv[key]})
		}
		if !sizing {
			return frames, len(users) + len(locked) + len(keys)
		}
		frames = make([]byte, 0, size)
	}
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
