package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// followerState is the dial-loop machinery of a following node: one
// goroutine dials the primary, applies its stream, and redials on any
// error. Sequence floors live here (per upstream run id), not in the
// store: a restarted follower presents run id 0 and is re-bootstrapped
// from snapshots, which is exactly the crash-only discipline — its
// durable state is still valid, but its resume position is not worth
// persisting. A follower whose bootstrap was cut short presents run id
// 0 too.
type followerState struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu          sync.Mutex
	conn        net.Conn // live connection, closed by halt to interrupt reads
	upstreamRun uint64
	applied     []uint64 // per-shard applied seq under upstreamRun
}

// halt stops the dial loop and waits for it to exit.
func (fo *followerState) halt() {
	fo.stopOnce.Do(func() { close(fo.stop) })
	fo.mu.Lock()
	if fo.conn != nil {
		fo.conn.Close()
	}
	fo.mu.Unlock()
	<-fo.done
}

// stopped reports whether halt was called.
func (fo *followerState) stopped() bool {
	select {
	case <-fo.stop:
		return true
	default:
		return false
	}
}

// startFollower launches the dial loop.
func (n *Node) startFollower() {
	fo := &followerState{
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		applied: make([]uint64, n.shards),
	}
	n.fo = fo
	n.wg.Add(1)
	go n.followLoop(fo)
}

// followLoop dials, follows, and redials until halted.
func (n *Node) followLoop(fo *followerState) {
	defer n.wg.Done()
	defer close(fo.done)
	for {
		if fo.stopped() {
			return
		}
		err := n.followOnce(fo)
		if fo.stopped() {
			return
		}
		if err != nil && !errors.Is(err, net.ErrClosed) {
			n.opts.Logf("repl: follower: %v; redialing %s", err, n.opts.Primary)
		}
		select {
		case <-fo.stop:
			return
		case <-time.After(n.opts.Redial):
		}
	}
}

// followOnce runs one connection to the primary: handshake, then
// apply-and-ack until the connection dies. Any error — dial failure,
// torn message, corrupt batch — abandons the connection; the next
// attempt resumes from the applied floors (or re-bootstraps if the
// primary's retention no longer covers them).
func (n *Node) followOnce(fo *followerState) error {
	c, err := n.opts.Dial(n.opts.Primary)
	if err != nil {
		return err
	}
	fo.mu.Lock()
	if fo.stopped() {
		fo.mu.Unlock()
		c.Close()
		return nil
	}
	fo.conn = c
	seqs := append([]uint64(nil), fo.applied...)
	runID := fo.upstreamRun
	fo.mu.Unlock()
	defer func() {
		c.Close()
		fo.mu.Lock()
		if fo.conn == c {
			fo.conn = nil
		}
		fo.mu.Unlock()
	}()

	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	hello := wireMsg{
		Type:      msgHello,
		Proto:     protoVersion,
		Epoch:     epoch,
		RunID:     runID,
		Seqs:      seqs,
		Shards:    n.shards,
		Advertise: n.opts.Advertise,
	}
	_ = c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := writeMsg(c, &hello); err != nil {
		return err
	}
	_ = c.SetWriteDeadline(time.Time{})
	br := bufio.NewReader(c)
	var w wireMsg
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := readMsg(br, &w); err != nil {
		return fmt.Errorf("reading welcome: %w", err)
	}
	_ = c.SetReadDeadline(time.Time{})
	if w.Type != msgWelcome {
		return fmt.Errorf("expected welcome, got %q", w.Type)
	}
	if w.Proto != protoVersion {
		return fmt.Errorf("primary speaks replication protocol %d, this node %d; both nodes of a pair must run one release", w.Proto, protoVersion)
	}
	if w.Shards != n.shards {
		return fmt.Errorf("primary has %d shards, this store has %d; cannot follow", w.Shards, n.shards)
	}
	n.mu.Lock()
	if w.Epoch < n.epoch {
		cur := n.epoch
		n.mu.Unlock()
		return fmt.Errorf("primary's epoch %d is behind ours (%d); refusing a stale primary", w.Epoch, cur)
	}
	n.epoch = w.Epoch
	if w.Advertise != "" {
		n.primaryAddr = w.Advertise
	}
	n.mu.Unlock()
	if _, err := n.store.AdvanceEpoch(w.Epoch); err != nil {
		return fmt.Errorf("persisting primary epoch: %w", err)
	}
	a := &applier{n: n, fo: fo, c: c, runID: w.RunID, inflight: make(map[int]bool), slots: make(chan struct{}, maxInstalls)}
	fo.mu.Lock()
	if w.RunID != fo.upstreamRun {
		// Our floors are meaningless to the new incarnation. Until every
		// shard is installed, present run id 0, so a mid-bootstrap
		// disconnect redials into a full bootstrap: a floor of 0 would
		// resume a shard this node never received.
		fo.upstreamRun = 0
		a.booting = make(map[int]bool, n.shards)
		for i := range fo.applied {
			fo.applied[i] = 0
			a.booting[i] = true
		}
	}
	fo.mu.Unlock()
	n.touch()
	a.fail(a.read(br))
	return a.wait()
}

// maxInstalls caps the snapshot installs one connection runs at once.
// At the cap the reader stops reading, so TCP flow control holds the
// rest of a bootstrap at the primary, and a follower holds at most
// maxInstalls+1 shard snapshots and runs at most maxInstalls log
// rewrites at a time.
const maxInstalls = 4

// applier is the apply side of one connection to the primary. Each
// snapshot installs and acks on its own goroutine while the reader
// reads on, so the installs overlap their CPU and fsyncs. The reader
// waits for every install in flight before it applies frames, or
// before a snapshot for a shard still installing, so each shard
// applies its stream in order. The first failure, an install's or the
// reader's, closes the connection and is the connection's error.
type applier struct {
	n        *Node
	fo       *followerState
	c        net.Conn
	runID    uint64        // the primary's, adopted once booting empties
	booting  map[int]bool  // shards owed their first snapshot (guarded by fo.mu)
	inflight map[int]bool  // shards installing since the reader last waited (reader only)
	slots    chan struct{} // one per install in flight
	installs sync.WaitGroup
	wmu      sync.Mutex // serializes acks to c

	mu  sync.Mutex
	err error // the first failure
}

// read applies the stream until it fails, and returns the failure.
func (a *applier) read(br *bufio.Reader) error {
	n := a.n
	for {
		var m wireMsg
		if err := readMsg(br, &m); err != nil {
			return err
		}
		n.touch()
		switch m.Type {
		case msgPing:
			continue
		case msgSnapshot:
			if m.Shard < 0 || m.Shard >= n.shards {
				return fmt.Errorf("snapshot for unknown shard %d", m.Shard)
			}
			if a.inflight[m.Shard] {
				if err := a.wait(); err != nil {
					return err
				}
			}
			a.slots <- struct{}{}
			a.inflight[m.Shard] = true
			a.installs.Add(1)
			go a.install(m)
		case msgFrames:
			if m.Shard < 0 || m.Shard >= n.shards {
				return fmt.Errorf("frames for unknown shard %d", m.Shard)
			}
			if err := a.wait(); err != nil {
				return err
			}
			if err := n.store.ApplyReplFrames(m.Shard, m.Frames); err != nil {
				return fmt.Errorf("applying shard %d batch: %w", m.Shard, err)
			}
			a.fo.setApplied(m.Shard, m.Seq)
			// ApplyReplFrames fsynced under SyncAlways, so this ack is
			// the durable coverage a quorum-mode primary waits on.
			if err := a.ack(m.Shard, m.Seq); err != nil {
				return err
			}
		default:
			// A message this release does not know means a peer on
			// another protocol: guessing at it could install the wrong
			// state.
			return fmt.Errorf("unexpected %q message from the primary", m.Type)
		}
	}
}

// install installs one shard's snapshot, records its floor and acks it.
func (a *applier) install(m wireMsg) {
	defer func() {
		<-a.slots
		a.installs.Done()
	}()
	if err := a.n.store.InstallShardSnapshot(m.Shard, m.Frames); err != nil {
		a.fail(fmt.Errorf("installing shard %d snapshot: %w", m.Shard, err))
		return
	}
	fo := a.fo
	fo.setApplied(m.Shard, m.Seq)
	fo.mu.Lock()
	delete(a.booting, m.Shard)
	if a.booting != nil && len(a.booting) == 0 {
		a.booting = nil
		fo.upstreamRun = a.runID
	}
	fo.mu.Unlock()
	if err := a.ack(m.Shard, m.Seq); err != nil {
		a.fail(err)
	}
}

// ack tells the primary that shard is applied through seq.
func (a *applier) ack(shard int, seq uint64) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return writeMsg(a.c, &wireMsg{Type: msgAck, Shard: shard, Seq: seq})
}

// fail records err unless a failure came first, and closes the
// connection, which ends the reader.
func (a *applier) fail(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
	a.c.Close()
}

// wait waits for every install in flight and returns the first failure.
func (a *applier) wait() error {
	a.installs.Wait()
	clear(a.inflight)
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// setApplied records the follower's applied floor for a shard.
func (fo *followerState) setApplied(shard int, seq uint64) {
	fo.mu.Lock()
	if seq > fo.applied[shard] {
		fo.applied[shard] = seq
	}
	fo.mu.Unlock()
}
