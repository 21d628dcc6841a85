package vault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clickpass/internal/passpoints"
)

// faultFile wraps a real walFile with injectable failures: each op
// consults its hook (when set) before delegating. The hooks are
// shared across every file the store opens, so a test scripts one
// controller and sees it applied to whichever shard log is hit.
type faultFile struct {
	walFile
	ctl *faultCtl
}

type faultCtl struct {
	writeErr func() error  // consulted before each Write
	syncErr  func() error  // consulted before each Sync
	truncErr func() error  // consulted before each Truncate
	seekErr  func() error  // consulted before each Seek
	syncGate chan struct{} // when non-nil, Sync blocks until it closes
	entered  atomic.Int64  // Sync calls begun (gated ones count immediately)
	syncs    atomic.Int64  // Sync calls that reached the real file
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.ctl.writeErr != nil {
		if err := f.ctl.writeErr(); err != nil {
			return 0, err
		}
	}
	return f.walFile.Write(p)
}

func (f *faultFile) Sync() error {
	if f.ctl.syncErr != nil {
		if err := f.ctl.syncErr(); err != nil {
			return err
		}
	}
	f.ctl.entered.Add(1)
	if gate := f.ctl.syncGate; gate != nil {
		<-gate
	}
	f.ctl.syncs.Add(1)
	return f.walFile.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.ctl.truncErr != nil {
		if err := f.ctl.truncErr(); err != nil {
			return err
		}
	}
	return f.walFile.Truncate(size)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if f.ctl.seekErr != nil {
		if err := f.ctl.seekErr(); err != nil {
			return 0, err
		}
	}
	return f.walFile.Seek(offset, whence)
}

// openFaulty opens a durable store whose shard logs all route through
// ctl's hooks.
func openFaulty(t *testing.T, dir string, opts DurableOptions, ctl *faultCtl) *Durable {
	t.Helper()
	d, err := openDurable(dir, opts, func(path string) (walFile, error) {
		f, err := defaultOpenFile(path)
		if err != nil {
			return nil, err
		}
		return &faultFile{walFile: f, ctl: ctl}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// failAfter returns a hook erroring on call n (1-based) and passing
// every other call.
func failAfter(n int64, err error) func() error {
	var calls atomic.Int64
	return func() error {
		if calls.Add(1) == n {
			return err
		}
		return nil
	}
}

// versionedRecord builds a record whose digest encodes (user, version)
// so recovered state identifies exactly which write survived.
func versionedRecord(user string, version int) *passpoints.Record {
	return &passpoints.Record{
		User: user, Kind: passpoints.KindCentered,
		SquareSidePx: 13, Iterations: 2,
		Salt:   []byte{0xA5, byte(version), byte(version >> 8)},
		Digest: []byte(fmt.Sprintf("%s#%06d", user, version)),
	}
}

// recordVersion parses versionedRecord's digest back, failing the test
// on a digest no writer ever produced (a corrupt or fabricated record).
func recordVersion(t *testing.T, trial string, rec *passpoints.Record) int {
	t.Helper()
	i := strings.LastIndexByte(string(rec.Digest), '#')
	if i < 0 {
		t.Fatalf("%s: recovered record %q has non-writer digest %q", trial, rec.User, rec.Digest)
	}
	v, err := strconv.Atoi(string(rec.Digest[i+1:]))
	if err != nil {
		t.Fatalf("%s: recovered record %q has non-writer digest %q", trial, rec.User, rec.Digest)
	}
	return v
}

// TestGroupCommitTorture is the concurrent version of the torture
// tests: N writers hammer one shard log under SyncAlways (so their
// appends coalesce into group commits), each recording the log size
// observed right after its ack — an upper bound on the offset below
// which that version is durable, because the ack means a shared fsync
// covered it. Then the log is torn at random byte offsets and
// reopened: for every writer, the recovered version must be at least
// the newest version whose ack-time bound lies below the tear (no
// false rejects of acked writes), and every recovered digest must be
// one some writer actually produced (no fabricated state).
func TestGroupCommitTorture(t *testing.T) {
	const (
		writers  = 6
		versions = 40
	)
	dir := t.TempDir()
	opts := DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, shardLogName(0))
	// ackEnd[w][v] = file size observed after version v's ack. Writes
	// from other writers may land between the ack and the Stat, so the
	// bound is conservative — exactly what the assertion needs.
	ackEnd := make([][]int64, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		ackEnd[w] = make([]int64, versions)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", w)
			for v := 0; v < versions; v++ {
				if err := d.Replace(versionedRecord(user, v)); err != nil {
					errs <- fmt.Errorf("writer %d version %d: %w", w, v, err)
					return
				}
				st, err := os.Stat(logPath)
				if err != nil {
					errs <- err
					return
				}
				ackEnd[w][v] = st.Size()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	tears := []int64{0, 3, walHeaderSize, full.Size() - 1, full.Size()}
	for i := 0; i < 12; i++ {
		tears = append(tears, rng.Int63n(full.Size()+1))
	}
	for _, tearAt := range tears {
		trial := fmt.Sprintf("tear@%d", tearAt)
		cdir := t.TempDir()
		copyDir(t, dir, cdir)
		if err := os.Truncate(filepath.Join(cdir, shardLogName(0)), tearAt); err != nil {
			t.Fatal(err)
		}
		back, err := OpenDurable(cdir, opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", trial, err)
		}
		for w := 0; w < writers; w++ {
			user := fmt.Sprintf("user-%d", w)
			floor := -1
			for v := 0; v < versions; v++ {
				if ackEnd[w][v] <= tearAt {
					floor = v
				}
			}
			rec, err := back.Get(user)
			if err != nil {
				if floor >= 0 {
					t.Errorf("%s: %s acked through version %d but lost entirely (false reject)", trial, user, floor)
				}
				continue
			}
			got := recordVersion(t, trial, rec)
			if got < floor {
				t.Errorf("%s: %s recovered at version %d, acked through %d below the tear (false reject)", trial, user, got, floor)
			}
			if got >= versions {
				t.Errorf("%s: %s recovered at version %d, never written (false accept)", trial, user, got)
			}
		}
		back.Close()
	}
}

// TestGroupCommitBatchFailure injects one failing fsync under
// concurrent SyncAlways load and asserts the whole failure contract:
// every writer whose record rode the failed batch gets an error (zero
// false acks), the shard's in-memory maps roll back to the acked
// prefix, the shard sticks at ErrShardFailed for every later mutation
// (the fsyncgate rule: after one failed fsync, no later fsync result
// can prove durability) while reads keep working, and a restart
// recovers exactly the acked writes.
func TestGroupCommitBatchFailure(t *testing.T) {
	const writers = 8
	injected := errors.New("injected fsync failure")
	ctl := &faultCtl{syncErr: failAfter(10, injected)}
	dir := t.TempDir()
	d := openFaulty(t, dir, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}, ctl)

	// lastAcked[w] is the newest version whose Replace returned nil.
	lastAcked := make([]atomic.Int64, writers)
	sawFailure := atomic.Bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		lastAcked[w].Store(-1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", w)
			for v := 0; v < 200; v++ {
				if err := d.Replace(versionedRecord(user, v)); err != nil {
					sawFailure.Store(true)
					return
				}
				lastAcked[w].Store(int64(v))
			}
		}(w)
	}
	wg.Wait()
	if !sawFailure.Load() {
		t.Fatal("no writer observed the injected fsync failure")
	}

	// Sticky refusal: every further mutation fails with ErrShardFailed.
	if err := d.Replace(versionedRecord("user-0", 999)); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("mutation after failed fsync: got %v, want ErrShardFailed", err)
	}
	if err := d.SetLockout("user-0", 3); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("lockout write after failed fsync: got %v, want ErrShardFailed", err)
	}

	// Reads still serve the acked state, and the failed batch's map
	// updates were rolled back: nothing newer than the acked version.
	for w := 0; w < writers; w++ {
		user := fmt.Sprintf("user-%d", w)
		acked := int(lastAcked[w].Load())
		rec, err := d.Get(user)
		if err != nil {
			if acked >= 0 {
				t.Errorf("in-memory: %s acked through %d but missing: %v", user, acked, err)
			}
			continue
		}
		if got := recordVersion(t, "in-memory", rec); got != acked {
			t.Errorf("in-memory: %s at version %d, want last acked %d (failed batch not rolled back)", user, got, acked)
		}
	}

	// Restart (real files, no injection): the log holds exactly the
	// acked prefix — failStop truncated the failed batch's bytes.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	for w := 0; w < writers; w++ {
		user := fmt.Sprintf("user-%d", w)
		acked := int(lastAcked[w].Load())
		rec, err := back.Get(user)
		if err != nil {
			if acked >= 0 {
				t.Errorf("recovered: %s acked through %d but lost (false reject): %v", user, acked, err)
			}
			continue
		}
		if got := recordVersion(t, "recovered", rec); got != acked {
			t.Errorf("recovered: %s at version %d, want exactly last acked %d", user, got, acked)
		}
	}
}

// TestGroupCommitWriteFailureRollsBack injects one failing batch write
// under concurrent SyncAlways load, with a rollback that succeeds, and
// asserts the one failure rule: every writer whose record was pending
// — in the failed batch or in the batch staged behind it — gets the
// write's error, not ErrShardFailed; the shard stays writable, so the
// writers carry on; and memory and a reopened log hold exactly each
// writer's last acked version.
func TestGroupCommitWriteFailureRollsBack(t *testing.T) {
	const writers = 8
	injected := errors.New("injected write failure")
	ctl := &faultCtl{writeErr: failAfter(20, injected)}
	dir := t.TempDir()
	opts := DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}
	d := openFaulty(t, dir, opts, ctl)

	// lastAcked[w] is the newest version whose Replace returned nil.
	lastAcked := make([]int, writers)
	failures := make([][]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		lastAcked[w] = -1
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", w)
			for v := 0; v < 40; v++ {
				if err := d.Replace(versionedRecord(user, v)); err != nil {
					failures[w] = append(failures[w], err)
					continue
				}
				lastAcked[w] = v
			}
		}(w)
	}
	wg.Wait()
	failed := 0
	for w, errs := range failures {
		failed += len(errs)
		for _, err := range errs {
			if errors.Is(err, ErrShardFailed) || !errors.Is(err, injected) {
				t.Errorf("writer %d: got %v, want the injected write error without ErrShardFailed", w, err)
				break
			}
		}
	}
	if failed == 0 {
		t.Fatal("no writer observed the injected write failure")
	}
	t.Logf("%d pending writes failed with the batch", failed)
	if err := d.Replace(versionedRecord("user-0", 999)); err != nil {
		t.Fatalf("write after a clean rollback: %v", err)
	}
	lastAcked[0] = 999
	check := func(where string, d *Durable) {
		t.Helper()
		for w := 0; w < writers; w++ {
			user := fmt.Sprintf("user-%d", w)
			rec, err := d.Get(user)
			if err != nil {
				if lastAcked[w] >= 0 {
					t.Errorf("%s: %s acked through %d but missing: %v", where, user, lastAcked[w], err)
				}
				continue
			}
			if got := recordVersion(t, where, rec); got != lastAcked[w] {
				t.Errorf("%s: %s at version %d, want exactly last acked %d", where, user, got, lastAcked[w])
			}
		}
	}
	check("in memory", d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	check("after reopen", back)
}

// TestGroupCommitFailedFlushFailsBatchInFlight: a Save whose fsync
// fails while a batch leader is out fail-stops the shard at once, and
// the leader's batch fails with it. Save returns without waiting for
// the leader, a write arriving during the flight is refused rather
// than staged, and the leader, whose own fsync succeeds, does not ack:
// both fsyncs went through one open file, which reports a writeback
// error once, so its success proves nothing. The record stays at its
// version before the batch, in memory and after a reopen.
func TestGroupCommitFailedFlushFailsBatchInFlight(t *testing.T) {
	injected := errors.New("injected fsync failure")
	flushGate, leaderGate := make(chan struct{}), make(chan struct{})
	entered := make(chan int64, 8)
	var calls atomic.Int64
	// Sync 2 is Save's, which fails once released; sync 3 is the
	// leader's, which succeeds once released.
	ctl := &faultCtl{syncErr: func() error {
		n := calls.Add(1)
		entered <- n
		switch n {
		case 2:
			<-flushGate
			return injected
		case 3:
			<-leaderGate
		}
		return nil
	}}
	dir := t.TempDir()
	opts := DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}
	d := openFaulty(t, dir, opts, ctl)
	if err := d.Put(versionedRecord("alpha", 0)); err != nil {
		t.Fatal(err)
	}
	<-entered
	saved := make(chan error, 1)
	go func() { saved <- d.Save() }()
	<-entered
	replaced := make(chan error, 1)
	go func() { replaced <- d.Replace(versionedRecord("alpha", 1)) }()
	<-entered // the leader has written its batch and waits in its fsync
	close(flushGate)
	select {
	case err := <-saved:
		if !errors.Is(err, injected) {
			t.Fatalf("Save: got %v, want the injected fsync error", err)
		}
	case <-time.After(10 * time.Second):
		close(leaderGate)
		t.Fatal("Save waited for the leader in flight")
	}
	refused := make(chan error, 1)
	go func() { refused <- d.Replace(versionedRecord("alpha", 2)) }()
	select {
	case err := <-refused:
		if !errors.Is(err, ErrShardFailed) {
			t.Fatalf("write during the flight: got %v, want ErrShardFailed", err)
		}
	case <-time.After(10 * time.Second):
		close(leaderGate)
		t.Fatal("a write during the flight was staged behind the leader, not refused")
	}
	close(leaderGate)
	if err := <-replaced; !errors.Is(err, ErrShardFailed) {
		t.Fatalf("Replace in the leader's batch: got %v, want ErrShardFailed", err)
	}
	check := func(where string, d *Durable) {
		t.Helper()
		rec, err := d.Get("alpha")
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if got := recordVersion(t, where, rec); got != 0 {
			t.Errorf("%s: alpha at version %d, want the acked 0", where, got)
		}
	}
	check("in memory", d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	check("after reopen", back)
}

// TestFsyncsPerCaller pins how often each caller of the append path
// fsyncs a shard log, counted before Close: one fsync per sequential
// mutation and per replicated batch under SyncAlways, none under
// SyncNever, and an ImportJSON one per shard — its closing Save —
// whatever the record count.
func TestFsyncsPerCaller(t *testing.T) {
	const n = 5
	batch := appendFrame(nil, &walEntry{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("r0", 0))})
	batch = appendFrame(batch, &walEntry{Op: walOpLock, User: "r0", Failures: 2})
	batch = appendFrame(batch, &walEntry{Op: walOpKV, Key: "k", Val: []byte("v")})
	recs := make([]*passpoints.Record, 300)
	for i := range recs {
		recs[i] = versionedRecord(fmt.Sprintf("imp-%03d", i), 0)
	}
	snap := filepath.Join(t.TempDir(), "snap.json")
	if err := writeRecords(snap, recs); err != nil {
		t.Fatal(err)
	}
	callers := []struct {
		name   string
		shards int
		run    func(d *Durable) error
		want   map[SyncPolicy]int64
	}{
		{"mutations", 1, func(d *Durable) error {
			for v := 0; v < n; v++ {
				if err := d.Replace(versionedRecord("alpha", v)); err != nil {
					return err
				}
			}
			return d.SetLockout("alpha", 1)
		}, map[SyncPolicy]int64{SyncAlways: n + 1, SyncNever: 0}},
		{"replicated-batch", 1, func(d *Durable) error {
			return d.ApplyReplFrames(0, batch)
		}, map[SyncPolicy]int64{SyncAlways: 1, SyncNever: 0}},
		{"import", 4, func(d *Durable) error {
			return d.ImportJSON(snap)
		}, map[SyncPolicy]int64{SyncAlways: 4, SyncNever: 4}},
	}
	for _, c := range callers {
		for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
			t.Run(c.name+"-"+policy.String(), func(t *testing.T) {
				ctl := &faultCtl{}
				d := openFaulty(t, t.TempDir(), DurableOptions{Shards: c.shards, Sync: policy, NoAutoCompact: true}, ctl)
				if err := c.run(d); err != nil {
					t.Fatal(err)
				}
				if got, want := ctl.syncs.Load(), c.want[policy]; got != want {
					t.Errorf("%d fsyncs, want %d", got, want)
				}
			})
		}
	}
}

// TestWalRollback covers the failed-append rollback paths of the one
// append path, appendLog, from each of its three callers — a mutation,
// ApplyReplFrames and ImportJSON — under SyncAlways (a synced leader
// writes outside the shard lock) and SyncNever (an unsynced one writes
// under it). Each caller writes three records, and the third write
// fails. A failed write whose rollback succeeds errors the call,
// leaves no trace in memory or in the log, and keeps the shard usable,
// while a rollback that cannot restore the committed offset — Truncate
// or the follow-up Seek failing — must fail-stop the shard instead of
// letting later appends write behind a tear. The Seek case guards a
// regression: rollback once ignored a failed Seek after a successful
// Truncate.
func TestWalRollback(t *testing.T) {
	injected := errors.New("injected failure")
	cases := []struct {
		name     string
		ctl      func() *faultCtl
		wantStop bool
	}{
		{"write-fails-rollback-succeeds", func() *faultCtl {
			return &faultCtl{writeErr: failAfter(3, injected)}
		}, false},
		// Open-time recovery (replayLog) consumes 1 Truncate and 3
		// Seeks per shard; the rollback after the failed third append
		// is therefore Truncate call 2 and Seek call 4.
		{"rollback-truncate-fails", func() *faultCtl {
			return &faultCtl{
				writeErr: failAfter(3, injected),
				truncErr: failAfter(2, injected),
			}
		}, true},
		{"rollback-seek-fails", func() *faultCtl {
			return &faultCtl{
				writeErr: failAfter(3, injected),
				seekErr:  failAfter(4, injected),
			}
		}, true},
	}
	// Each caller writes recs into a one-shard store, one log write per
	// record, and returns the first error.
	callers := []struct {
		name  string
		write func(t *testing.T, d *Durable, recs []*passpoints.Record) error
	}{
		{"mutate", func(t *testing.T, d *Durable, recs []*passpoints.Record) error {
			for _, r := range recs {
				if err := d.Put(r); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ApplyReplFrames", func(t *testing.T, d *Durable, recs []*passpoints.Record) error {
			for _, r := range recs {
				frame := appendFrame(nil, &walEntry{Op: walOpPut, Rec: passpoints.Pack(r)})
				if err := d.ApplyReplFrames(0, frame); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ImportJSON", func(t *testing.T, d *Durable, recs []*passpoints.Record) error {
			snap := filepath.Join(t.TempDir(), "snap.json")
			if err := writeRecords(snap, recs); err != nil {
				t.Fatal(err)
			}
			return d.ImportJSON(snap)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range callers {
				t.Run(c.name, func(t *testing.T) {
					for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
						t.Run(policy.String(), func(t *testing.T) {
							testWalRollback(t, tc.ctl(), tc.wantStop, policy, c.write)
						})
					}
				})
			}
		})
	}
}

// testWalRollback runs one TestWalRollback case: write three records
// through write, the third of which fails, then check the shard's
// state, one more write and the log's replay.
func testWalRollback(t *testing.T, ctl *faultCtl, wantStop bool, policy SyncPolicy,
	write func(t *testing.T, d *Durable, recs []*passpoints.Record) error) {
	dir := t.TempDir()
	d := openFaulty(t, dir, DurableOptions{Shards: 1, Sync: policy}, ctl)
	versions := func(d *Durable) map[string]int {
		got := map[string]int{}
		for _, r := range d.All() {
			got[r.User] = recordVersion(t, t.Name(), r)
		}
		return got
	}
	recs := []*passpoints.Record{versionedRecord("u0", 0), versionedRecord("u1", 0), versionedRecord("u2", 0)}
	// Write 3 fails.
	if err := write(t, d, recs); err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	if got, want := versions(d), map[string]int{"u0": 0, "u1": 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("in memory after the failed write: %v, want %v", got, want)
	}
	err := d.Replace(versionedRecord("u0", 1))
	if wantStop {
		if !errors.Is(err, ErrShardFailed) {
			t.Fatalf("append after failed rollback: got %v, want ErrShardFailed", err)
		}
	} else if err != nil {
		t.Fatalf("append after clean rollback: %v", err)
	}
	// Either way the log must replay to a consistent prefix: u0 and u1
	// acked, u2 failed, u0's version 1 only if the shard stayed usable.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, DurableOptions{Shards: 1, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	want := map[string]int{"u0": 1, "u1": 0}
	if wantStop {
		want["u0"] = 0
	}
	if got := versions(back); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %v, want %v", got, want)
	}
}

// TestSyncLoopDoesNotBlockAppends pins the background-flush contract
// under SyncInterval: the fsync runs outside the shard lock (appends
// proceed while a sync is stuck on a slow disk), and dirty is cleared
// through a generation counter, so appends landing mid-sync keep the
// shard dirty until a later sync actually covers them.
func TestSyncLoopDoesNotBlockAppends(t *testing.T) {
	gate := make(chan struct{})
	ctl := &faultCtl{syncGate: gate}
	d := openFaulty(t, t.TempDir(),
		DurableOptions{Shards: 1, Sync: SyncInterval, NoAutoCompact: true}, ctl)
	if err := d.Put(versionedRecord("alpha", 0)); err != nil {
		t.Fatal(err)
	}
	// Wait until the sync loop has actually entered the gated fsync,
	// so the appends below demonstrably race an in-flight sync.
	sh := &d.logs[0]
	deadline := time.Now().Add(5 * time.Second)
	for ctl.entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sync never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Appends must complete while the background fsync is blocked; a
	// sync loop holding the shard lock across fsync deadlocks here.
	done := make(chan error, 1)
	go func() {
		for v := 1; v <= 5; v++ {
			if err := d.Replace(versionedRecord("alpha", v)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("appends blocked behind an in-flight background fsync")
	}
	close(gate)
	// The gated sync raced those appends, so it must NOT have cleared
	// dirty for bytes it didn't cover: the shard stays dirty until a
	// post-append sync lands, then settles clean.
	deadline = time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		clean := !sh.dirty
		sh.mu.Unlock()
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never settled clean after releasing the gated sync")
		}
		time.Sleep(time.Millisecond)
	}
	if ctl.syncs.Load() < 2 {
		t.Errorf("dirty cleared after %d syncs; the mid-sync appends needed a second covering sync", ctl.syncs.Load())
	}
}
