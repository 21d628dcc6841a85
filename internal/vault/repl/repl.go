// Package repl replicates a durable vault by shipping its per-shard
// write-ahead logs to followers over TCP — primary/backup log
// shipping in which a follower is simply the startup-recovery code
// path running continuously: every received batch goes through the
// same frame validation and walEntry application as crash replay, so
// replicated state is byte-equivalent to crash-recovered state by
// construction.
//
// A Node wraps a *vault.Durable and implements vault.Store (and
// vault.LockoutStore) with a role guard in front: a primary accepts
// mutations and record reads and streams the mutations; a follower,
// like a fenced ex-primary, refuses both with vault.NotPrimaryError
// (carrying the primary's advertised address as a redirect hint), so
// only an unfenced primary verifies a credential.
// Roles are governed by a monotonic epoch persisted in the store's
// meta.json: promotion bumps the epoch durably before the node acts
// as primary, and any node that observes a higher epoch than its own
// fences itself — a deposed primary refuses every later write rather
// than silently diverging. In quorum ack mode (AckQuorum) a mutation
// is only acknowledged to its writer after a follower's fsync covers
// it, which doubles as partition-tolerant fencing: a primary cut off
// from its follower cannot ack, so no acked write can be lost to a
// failover that promotes the follower.
//
// Followers bootstrap (and re-bootstrap after falling behind the
// primary's retention of unacknowledged batches) from per-shard
// snapshots that are log frames too: the primary encodes the shard's
// live state as compaction would write it, the follower validates the
// frames as it validates a batch, makes them its shard's log through
// the log replacement compaction uses, and replays them into its maps
// — so a shard's state moves in one format only. The frame stream
// resumes after the snapshot's sequence floor, and a follower's logs
// then compact on the same garbage ratio as the primary's. Both nodes
// of a pair must run one release: hello and welcome carry a protocol
// number, and each side refuses a peer on another.
package repl

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// Role is a node's replication role.
type Role int

// Roles.
const (
	// RoleFollower applies the primary's stream and refuses mutations.
	RoleFollower Role = iota
	// RolePrimary accepts mutations and streams them to followers.
	RolePrimary
)

// String returns the role's flag spelling.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// ParseRole parses the -role flag spellings "primary" and "follower".
func ParseRole(s string) (Role, error) {
	switch s {
	case "primary":
		return RolePrimary, nil
	case "follower":
		return RoleFollower, nil
	default:
		return 0, fmt.Errorf("repl: unknown role %q (want primary or follower)", s)
	}
}

// AckMode selects when a primary acknowledges a mutation to its
// writer.
type AckMode int

// Ack modes.
const (
	// AckQuorum acks a mutation only after a follower's fsync covers
	// it (piggybacking on the group-commit batch): an acked write
	// survives losing the primary wholesale. The default.
	AckQuorum AckMode = iota
	// AckAsync acks on local durability alone; the stream trails
	// behind. Cheaper, but writes acked inside the replication lag
	// window are lost if the primary dies and the follower is
	// promoted.
	AckAsync
)

// String returns the mode's flag spelling.
func (m AckMode) String() string {
	switch m {
	case AckQuorum:
		return "quorum"
	case AckAsync:
		return "async"
	default:
		return fmt.Sprintf("AckMode(%d)", int(m))
	}
}

// ParseAckMode parses the -repl-ack flag spellings "quorum" and
// "async".
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "quorum":
		return AckQuorum, nil
	case "async":
		return AckAsync, nil
	default:
		return 0, fmt.Errorf("repl: unknown ack mode %q (want quorum or async)", s)
	}
}

// Options configures a Node. The zero value of every optional field
// selects a sensible default (see each field).
type Options struct {
	// Listen is the replication listen address ("host:port"). A
	// primary serves its stream here; a follower keeps it so a later
	// Promote can start listening. Required for primaries.
	Listen string
	// Primary is the current primary's replication address a follower
	// dials. Required for followers.
	Primary string
	// Advertise is this node's client-facing address, handed to peers
	// and forwarded to clients in not-primary redirects.
	Advertise string
	// Ack selects quorum or async acknowledgement (primary side).
	Ack AckMode
	// QuorumTimeout bounds how long a quorum-mode mutation waits for
	// follower coverage before failing the writer (the record stays
	// locally durable); <= 0 selects 5s.
	QuorumTimeout time.Duration
	// Heartbeat is the primary's idle ping period, which keeps an idle
	// follower's repl_staleness_ms gauge (Stats.StaleMs) near zero;
	// <= 0 selects 500ms.
	Heartbeat time.Duration
	// RetainBytes caps each shard's retention buffer: the frames
	// committed but not yet acknowledged by a follower, which a
	// reconnecting follower resumes from. Acknowledged frames are
	// dropped at once, so the cap binds only while a follower lags or
	// is detached; a follower that falls behind it re-bootstraps that
	// shard from a snapshot. <= 0 selects 1 MiB.
	RetainBytes int
	// Redial is the follower's pause between connection attempts;
	// <= 0 selects 200ms.
	Redial time.Duration
	// Dial opens the replication connection (follower side and the
	// best-effort fence of an old primary). Tests inject flaky links
	// here. Nil selects net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Logf receives diagnostic messages; nil selects log.Printf.
	Logf func(format string, args ...any)
}

// errNodeClosed marks operations on a closed node.
var errNodeClosed = errors.New("repl: node is closed")

// errFenced is handed to quorum waiters when their primary is deposed
// mid-wait.
var errFenced = errors.New("repl: primary fenced by a higher epoch")

// Node is a replicated vault endpoint: a *vault.Durable plus a
// replication role. It implements vault.Store and vault.LockoutStore;
// route all traffic through it (not the wrapped store) so the role
// guard can refuse what the role must refuse.
type Node struct {
	store  *vault.Durable
	opts   Options
	shards int

	mu          sync.Mutex
	role        Role
	fenced      bool
	epoch       uint64
	runID       uint64
	primaryAddr string // current primary's client address; "" unknown
	closed      bool
	pr          *primaryState
	fo          *followerState

	// lastContact is the unix-nano time of the last message from the
	// upstream primary (follower), or of the fencing (deposed
	// primary) — what Stats.StaleMs counts from.
	lastContact atomic.Int64

	wg sync.WaitGroup
}

// Node implements the store interfaces it guards.
var (
	_ vault.Store        = (*Node)(nil)
	_ vault.LockoutStore = (*Node)(nil)
)

// New wraps store in a replication Node with the given initial role.
// A primary starts listening for followers on opts.Listen and installs
// the store's replication hooks; a follower starts dialing
// opts.Primary. The caller keeps ownership of the store but must
// route every read and mutation through the Node.
func New(store *vault.Durable, role Role, opts Options) (*Node, error) {
	if opts.QuorumTimeout <= 0 {
		opts.QuorumTimeout = 5 * time.Second
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	if opts.RetainBytes <= 0 {
		opts.RetainBytes = 1 << 20
	}
	if opts.Redial <= 0 {
		opts.Redial = 200 * time.Millisecond
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	n := &Node{
		store:  store,
		opts:   opts,
		shards: store.Shards(),
		role:   role,
		epoch:  store.Epoch(),
	}
	n.touch()
	switch role {
	case RolePrimary:
		if opts.Listen == "" {
			return nil, errors.New("repl: a primary requires a replication listen address")
		}
		runID, err := newRunID()
		if err != nil {
			return nil, err
		}
		n.runID = runID
		n.primaryAddr = opts.Advertise
		n.mu.Lock()
		err = n.startPrimaryLocked()
		n.mu.Unlock()
		if err != nil {
			return nil, err
		}
	case RoleFollower:
		if opts.Primary == "" {
			return nil, errors.New("repl: a follower requires the primary's replication address")
		}
		n.startFollower()
	default:
		return nil, fmt.Errorf("repl: unknown role %v", role)
	}
	return n, nil
}

// touch restarts Stats.StaleMs at zero.
func (n *Node) touch() { n.lastContact.Store(time.Now().UnixNano()) }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current replication epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// ReplAddr returns the node's replication listen address (useful when
// opts.Listen had port 0).
func (n *Node) ReplAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pr != nil && n.pr.ln != nil {
		return n.pr.ln.Addr().String()
	}
	return n.opts.Listen
}

// writable returns nil when the node may accept a mutation or serve
// a record read, or the refusal to hand the caller.
func (n *Node) writable() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errNodeClosed
	}
	if n.role != RolePrimary || n.fenced {
		addr := n.primaryAddr
		if addr == n.opts.Advertise {
			addr = "" // never redirect a client to ourselves
		}
		return &vault.NotPrimaryError{Primary: addr}
	}
	return nil
}

// Put stores a record for a new user (primary only).
func (n *Node) Put(rec *passpoints.Record) error {
	if err := n.writable(); err != nil {
		return err
	}
	return n.store.Put(rec)
}

// Replace stores a record, overwriting any existing one (primary
// only).
func (n *Node) Replace(rec *passpoints.Record) error {
	if err := n.writable(); err != nil {
		return err
	}
	return n.store.Replace(rec)
}

// Get returns a copy of user's record, or vault.ErrNotFound (primary
// only: a replica's record may be one the primary has replaced, and
// its lockout counters may trail the primary's, so a credential is
// checked nowhere else).
func (n *Node) Get(user string) (*passpoints.Record, error) {
	if err := n.writable(); err != nil {
		return nil, err
	}
	return n.store.Get(user)
}

// GetPacked returns user's packed record, or vault.ErrNotFound; like
// Get, it is served on an unfenced primary only.
func (n *Node) GetPacked(user string) (passpoints.Packed, error) {
	if err := n.writable(); err != nil {
		return passpoints.Packed{}, err
	}
	return n.store.GetPacked(user)
}

// Delete removes a user's record (primary only; the interface has no
// error return, so a follower logs and drops the call — the paired
// SetLockout in every admin flow surfaces the refusal).
func (n *Node) Delete(user string) {
	if err := n.writable(); err != nil {
		n.opts.Logf("repl: dropping delete of %q: %v", user, err)
		return
	}
	n.store.Delete(user)
}

// Users returns all user names in sorted order.
func (n *Node) Users() []string { return n.store.Users() }

// Len returns the number of records.
func (n *Node) Len() int { return n.store.Len() }

// All returns every record sorted by user.
func (n *Node) All() []*passpoints.Record { return n.store.All() }

// Save flushes the wrapped store's logs.
func (n *Node) Save() error { return n.store.Save() }

// SaveTo exports the wrapped store as a JSON snapshot.
func (n *Node) SaveTo(path string) error { return n.store.SaveTo(path) }

// SetLockout durably records user's failed-attempt count (primary
// only).
func (n *Node) SetLockout(user string, failures int) error {
	if err := n.writable(); err != nil {
		return err
	}
	return n.store.SetLockout(user, failures)
}

// Lockouts returns a copy of every persisted counter.
func (n *Node) Lockouts() map[string]int { return n.store.Lockouts() }

// SetKV durably sets a side-table blob (primary only) — the session
// tier's key/revocation persistence path, forwarded to the durable
// store so the write replicates like any other mutation.
func (n *Node) SetKV(key string, val []byte) error {
	if err := n.writable(); err != nil {
		return err
	}
	return n.store.SetKV(key, val)
}

// GetKV returns a copy of key's side-table blob. Served from local
// state on both roles: the session tier reads at seed/adopt time, and
// a follower's copy is exactly as fresh as the rest of its replica.
func (n *Node) GetKV(key string) ([]byte, bool) { return n.store.GetKV(key) }

// KVRange returns a copy of every side-table entry under prefix.
func (n *Node) KVRange(prefix string) map[string][]byte { return n.store.KVRange(prefix) }

// SetKVWatch forwards to the durable store: the observer fires for
// side-table keys changed by replication apply paths (see
// vault.KVStore).
func (n *Node) SetKVWatch(fn func(key string, val []byte)) { n.store.SetKVWatch(fn) }

// Promote turns a follower (or a fenced ex-primary) into the primary:
// it stops following, durably bumps the epoch past everything this
// node has seen, starts a fresh stream incarnation listening on
// opts.Listen, and best-effort fences the old primary by sending it
// the new epoch. Safe to call on an active primary (no-op returning
// the current epoch). The zero-acked-write-loss guarantee of a
// promotion belongs to quorum mode: an async-mode primary may have
// acked writes the follower never saw.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, errNodeClosed
	}
	if n.role == RolePrimary && !n.fenced {
		e := n.epoch
		n.mu.Unlock()
		return e, nil
	}
	if n.opts.Listen == "" {
		n.mu.Unlock()
		return 0, errors.New("repl: cannot promote without a replication listen address")
	}
	fo := n.fo
	n.fo = nil
	oldPrimary := n.opts.Primary
	n.mu.Unlock()
	if fo != nil {
		fo.halt()
	}
	epoch, err := n.store.AdvanceEpoch(n.store.Epoch() + 1)
	if err != nil {
		return 0, fmt.Errorf("repl: persisting promotion epoch: %w", err)
	}
	runID, err := newRunID()
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.role = RolePrimary
	n.fenced = false
	n.epoch = epoch
	n.runID = runID
	n.primaryAddr = n.opts.Advertise
	err = n.startPrimaryLocked()
	n.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n.opts.Logf("repl: promoted to primary at epoch %d", epoch)
	if oldPrimary != "" {
		go n.sendFence(oldPrimary, epoch)
	}
	return epoch, nil
}

// sendFence best-effort notifies a (possibly dead) old primary that a
// higher epoch exists, so a merely-partitioned one fences itself
// promptly instead of on its next quorum timeout.
func (n *Node) sendFence(addr string, epoch uint64) {
	c, err := n.opts.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	_ = writeMsg(c, &wireMsg{Type: msgHello, Epoch: epoch, Advertise: n.opts.Advertise})
}

// fence deposes this node: the epoch advances durably to the observed
// value, mutations and record reads are refused from here on, and the
// primary machinery (listener, follower connections, pending quorum
// waiters) shuts down.
//
// A fence only bites while remoteEpoch is strictly ahead of the
// node's own epoch, re-checked under n.mu: callers compare epochs
// outside the lock, so a Promote racing in between may have already
// carried the node to remoteEpoch or beyond — fencing then would tear
// down the newly started higher-epoch primary on a stale observation.
func (n *Node) fence(remoteEpoch uint64, newPrimary string) {
	n.mu.Lock()
	if remoteEpoch <= n.epoch {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	if _, err := n.store.AdvanceEpoch(remoteEpoch); err != nil {
		n.opts.Logf("repl: persisting fenced epoch %d: %v", remoteEpoch, err)
	}
	n.mu.Lock()
	if remoteEpoch <= n.epoch {
		// A concurrent Promote (or another fence) caught up while we
		// persisted; the epoch advance is durable either way.
		n.mu.Unlock()
		return
	}
	n.epoch = remoteEpoch
	n.fenced = true
	if newPrimary != "" {
		n.primaryAddr = newPrimary
	}
	ps := n.pr
	n.pr = nil
	n.mu.Unlock()
	n.touch() // Stats.StaleMs counts from the deposition
	if ps != nil {
		n.stopPrimary(ps, errFenced)
	}
	n.opts.Logf("repl: fenced at epoch %d (new primary %q); refusing writes", remoteEpoch, newPrimary)
}

// Close stops the node's replication machinery (listener, stream
// connections, dial loop) and fails pending quorum waiters. It does
// NOT close the wrapped store — the caller owns it — but in quorum
// mode the store keeps refusing every ack afterwards, since no
// follower can cover a write any more.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ps := n.pr
	n.pr = nil
	fo := n.fo
	n.fo = nil
	n.mu.Unlock()
	if fo != nil {
		fo.halt()
	}
	if ps != nil {
		n.stopPrimary(ps, errNodeClosed)
	}
	n.wg.Wait()
	return nil
}

// FollowerStat describes one attached follower's replication lag.
type FollowerStat struct {
	// Addr is the follower connection's remote address.
	Addr string
	// LagRecords is the number of committed seqs this follower has not
	// acknowledged, summed over shards. It counts the gaps failed
	// batches leave, which are never shipped, until a later ack covers
	// them.
	LagRecords uint64
}

// Stats is a point-in-time snapshot of the node's replication state —
// the /metrics surface.
type Stats struct {
	// Role is the current role's flag spelling.
	Role string
	// Epoch is the node's replication epoch.
	Epoch uint64
	// Fenced reports a deposed primary.
	Fenced bool
	// Primary is the current primary's advertised client address, ""
	// when unknown.
	Primary string
	// Followers lists attached followers and their lag (primary only).
	// The slice shape is future-proofing, not multi-follower support:
	// quorum acks wait on exactly ONE follower, and the primary
	// refuses a second concurrent follower connection outright (two
	// would make the max-ack quorum release unsound — a write could
	// ack on the faster follower and be lost if the slower one is
	// promoted). At most one entry is live at a time today.
	Followers []FollowerStat
	// StaleMs is the time since the last upstream message in
	// milliseconds (followers and fenced ex-primaries; -1 otherwise).
	StaleMs int64
	// RetainedBytes is the primary's retention summed over shards: the
	// frames no follower has acknowledged yet (0 on a follower).
	RetainedBytes int
}

// Stats returns the node's current replication state.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	s := Stats{
		Role:    n.role.String(),
		Epoch:   n.epoch,
		Fenced:  n.fenced,
		Primary: n.primaryAddr,
		StaleMs: -1,
	}
	ps := n.pr
	n.mu.Unlock()
	if ps != nil {
		ps.mu.Lock()
		for pc := range ps.conns {
			var lag uint64
			for sh := range ps.head {
				if ps.head[sh] > pc.acked[sh] {
					lag += ps.head[sh] - pc.acked[sh]
				}
			}
			s.Followers = append(s.Followers, FollowerStat{Addr: pc.addr, LagRecords: lag})
		}
		for sh := range ps.bufs {
			s.RetainedBytes += ps.bufs[sh].bytes
		}
		ps.mu.Unlock()
		sort.Slice(s.Followers, func(a, b int) bool { return s.Followers[a].Addr < s.Followers[b].Addr })
	} else {
		s.StaleMs = time.Since(time.Unix(0, n.lastContact.Load())).Milliseconds()
	}
	return s
}
