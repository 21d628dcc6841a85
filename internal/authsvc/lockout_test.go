package authsvc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"clickpass/internal/vault"
)

// openDurable opens a durable store over dir for the lockout
// persistence tests.
func openDurable(t *testing.T, dir string) *vault.Durable {
	t.Helper()
	d, err := vault.OpenDurable(dir, vault.DurableOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestLockoutSurvivesRestart: failed-attempt counters written through
// a LockoutStore must carry across a service restart — a rebooted
// server must not hand an online attacker a fresh budget (§5.1), and
// a locked account must stay locked until an explicit reset.
func TestLockoutSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 2)
	ctx := context.Background()
	const budget = 3

	svc, err := NewService(cfg, openDurable(t, dir), budget)
	if err != nil {
		t.Fatal(err)
	}
	if resp := svc.Handle(ctx, Request{Op: OpEnroll, User: "alice", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	// Burn one attempt for alice, all three for mallory (unknown users
	// consume attempts too — and durably).
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(9)}); resp.Code != CodeDenied {
		t.Fatalf("wrong-password login: %+v", resp)
	}
	for i := 0; i < budget; i++ {
		svc.Handle(ctx, Request{Op: OpLogin, User: "mallory", Clicks: clicks(9)})
	}
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "mallory", Clicks: clicks(9)}); resp.Code != CodeLocked {
		t.Fatalf("mallory should be locked: %+v", resp)
	}

	// "Restart": a fresh service over a reopened store.
	svc2, err := NewService(cfg, openDurable(t, dir), budget)
	if err != nil {
		t.Fatal(err)
	}
	// Alice's burned attempt must still be burned: one more failure
	// leaves budget-2 remaining, not budget-1.
	resp := svc2.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(9)})
	if resp.Code != CodeDenied || resp.Remaining != budget-2 {
		t.Errorf("after restart, alice failure = %+v, want denied with remaining %d", resp, budget-2)
	}
	// Mallory must still be locked without a single new attempt spent.
	if resp := svc2.Handle(ctx, Request{Op: OpLogin, User: "mallory", Clicks: clicks(9)}); resp.Code != CodeLocked {
		t.Errorf("lockout did not survive restart: %+v", resp)
	}
	// A successful login clears alice's counter durably...
	if resp := svc2.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("correct login: %+v", resp)
	}
	// ...and an admin reset clears mallory's.
	if resp := svc2.Handle(ctx, Request{Op: OpReset, User: "mallory"}); !resp.OK() {
		t.Fatalf("reset: %+v", resp)
	}

	svc3, err := NewService(cfg, openDurable(t, dir), budget)
	if err != nil {
		t.Fatal(err)
	}
	resp = svc3.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(9)})
	if resp.Code != CodeDenied || resp.Remaining != budget-1 {
		t.Errorf("cleared counter resurrected: %+v, want remaining %d", resp, budget-1)
	}
	resp = svc3.Handle(ctx, Request{Op: OpLogin, User: "mallory", Clicks: clicks(9)})
	if resp.Code != CodeDenied || resp.Remaining != budget-1 {
		t.Errorf("reset lockout resurrected: %+v, want denied with remaining %d", resp, budget-1)
	}
}

// TestLockoutInMemoryStoreUnchanged: stores without the LockoutStore
// extension keep the old semantics — counters reset with the process.
func TestLockoutInMemoryStoreUnchanged(t *testing.T) {
	ctx := context.Background()
	store := vault.NewSharded(0)
	svc, err := NewService(testConfig(t, 2), store, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp := svc.Handle(ctx, Request{Op: OpEnroll, User: "bob", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	svc.Handle(ctx, Request{Op: OpLogin, User: "bob", Clicks: clicks(9)})
	svc.Handle(ctx, Request{Op: OpLogin, User: "bob", Clicks: clicks(9)})
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "bob", Clicks: clicks(0)}); resp.Code != CodeLocked {
		t.Fatalf("bob should be locked: %+v", resp)
	}
	svc2, err := NewService(testConfig(t, 2), store, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp := svc2.Handle(ctx, Request{Op: OpLogin, User: "bob", Clicks: clicks(0)}); !resp.OK() {
		t.Errorf("in-memory lockout should reset on restart: %+v", resp)
	}
}

// TestReloadLockoutsAdoptsReplicatedCounters: counters that land in
// the store after the service is constructed — the replicated-
// follower case — are adopted by ReloadLockouts, max-wins. A lagging
// store must never lower a counter this process observed itself.
func TestReloadLockoutsAdoptsReplicatedCounters(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 2)
	ctx := context.Background()
	const budget = 3

	store := openDurable(t, dir)
	svc, err := NewService(cfg, store, budget)
	if err != nil {
		t.Fatal(err)
	}
	if resp := svc.Handle(ctx, Request{Op: OpEnroll, User: "alice", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	// Simulate replication delivering counters behind the service's
	// back: write straight to the store, as ApplyReplFrames would.
	if err := store.SetLockout("alice", budget); err != nil {
		t.Fatal(err)
	}
	// Burn two local attempts for carol, then have the "replica" offer
	// a stale 1 — the in-memory 2 must win.
	svc.Handle(ctx, Request{Op: OpLogin, User: "carol", Clicks: clicks(9)})
	svc.Handle(ctx, Request{Op: OpLogin, User: "carol", Clicks: clicks(9)})
	if err := store.SetLockout("carol", 1); err != nil {
		t.Fatal(err)
	}

	svc.ReloadLockouts()

	// Alice's replicated lockout now gates logins, correct password or
	// not.
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)}); resp.Code != CodeLocked {
		t.Errorf("replicated lockout not adopted: %+v", resp)
	}
	// Carol's third failure locks: the stale replicated 1 did not roll
	// the local 2 back.
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "carol", Clicks: clicks(9)}); resp.Code != CodeLocked {
		t.Errorf("reload lowered a local counter: %+v", resp)
	}
}

// memLockStore wraps the in-memory store with an in-memory
// LockoutStore extension, so reload tests that trigger a full
// capacity sweep (64k evictions) don't pay a disk flush per counter.
type memLockStore struct {
	*vault.Sharded
	mu    sync.Mutex
	locks map[string]int
}

func newMemLockStore() *memLockStore {
	return &memLockStore{Sharded: vault.NewSharded(0), locks: make(map[string]int)}
}

// SetLockout implements vault.LockoutStore.
func (m *memLockStore) SetLockout(user string, failures int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if failures <= 0 {
		delete(m.locks, user)
		return nil
	}
	m.locks[user] = failures
	return nil
}

// Lockouts implements vault.LockoutStore.
func (m *memLockStore) Lockouts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make(map[string]int, len(m.locks))
	for u, n := range m.locks {
		cp[u] = n
	}
	return cp
}

// TestReloadLockoutsSweepKeepsReadoptedCounters: when the reload's
// capacity sweep evicts a tracked user that the same reload later
// re-adopts from the persisted map (map iteration order is random),
// the post-loop zeroing pass must skip that user — durably zeroing a
// counter that is live again would hand a guesser a fresh attempt
// budget on the next restart, the exact hole the reload closes.
func TestReloadLockoutsSweepKeepsReadoptedCounters(t *testing.T) {
	cfg := testConfig(t, 2)
	const budget = 3
	// The bad interleaving needs a sweep-triggering new name to be
	// iterated before the target; with 100 new names per round and a
	// few rounds, the schedule is hit with near certainty.
	for round := 0; round < 3; round++ {
		store := newMemLockStore()
		svc, err := NewService(cfg, store, budget)
		if err != nil {
			t.Fatal(err)
		}
		// The in-memory map sits at capacity; target is tracked with a
		// sub-lockout counter, so a sweep would evict it.
		svc.mu.Lock()
		for i := 0; i < maxFailureEntries; i++ {
			svc.failures[fmt.Sprintf("filler%05d", i)] = 1
		}
		svc.failures["target"] = 1
		svc.mu.Unlock()
		// Replication delivered target's lockout plus a crowd of new
		// names. Adopting any new name first sweeps target out
		// mid-loop; the reload must still leave target locked in
		// memory AND leave its persisted counter intact.
		if err := store.SetLockout("target", budget); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := store.SetLockout(fmt.Sprintf("new%03d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
		svc.ReloadLockouts()
		svc.mu.Lock()
		got := svc.failures["target"]
		svc.mu.Unlock()
		if got != budget {
			t.Fatalf("round %d: in-memory target counter = %d, want %d", round, got, budget)
		}
		if got := store.Lockouts()["target"]; got != budget {
			t.Fatalf("round %d: target's persisted lockout = %d, want %d (sweep durably zeroed a re-adopted counter)", round, got, budget)
		}
	}
}
