package authsvc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"clickpass/internal/core"
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

// TestLoginUnderChangedScheme: a server restarted with another
// -scheme or -side must verify each account under the scheme it
// enrolled with. Locating the clicks under the new flag instead would
// deny the correct password and charge the account's durable lockout
// budget until it locked. A wrong password is still denied and
// charged.
func TestLoginUnderChangedScheme(t *testing.T) {
	ctx := context.Background()
	const budget = 3
	c13, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	c19, err := core.NewCentered(19)
	if err != nil {
		t.Fatal(err)
	}
	r36, err := core.NewRobust2D(36, core.MostCentered, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		enroll, serve core.Scheme
	}{
		{"centered13-at-centered19", c13, c19},
		{"robust36-at-centered13", r36, c13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(t, 2)
			cfg.Scheme = tc.enroll
			svc, err := NewService(cfg, openDurable(t, dir), budget)
			if err != nil {
				t.Fatal(err)
			}
			if resp := svc.Handle(ctx, Request{Op: OpEnroll, User: "alice", Clicks: clicks(0)}); !resp.OK() {
				t.Fatalf("enroll: %+v", resp)
			}

			cfg.Scheme = tc.serve
			svc2, err := NewService(cfg, openDurable(t, dir), budget)
			if err != nil {
				t.Fatal(err)
			}
			for i := range budget {
				if resp := svc2.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)}); !resp.OK() {
					t.Fatalf("correct login %d after the restart: %+v", i+1, resp)
				}
			}
			resp := svc2.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(40)})
			if resp.Code != CodeDenied || resp.Remaining != budget-1 {
				t.Errorf("wrong password = %+v, want denied with remaining %d", resp, budget-1)
			}
		})
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
// the store after the service is constructed — the promoted-follower
// case — are adopted by the first login, which loads the store's
// counters. A lagging store must never lower a counter this process
// observed itself.
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

	// The first login loads the counters: alice's replicated lockout
	// gates it, correct password or not.
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)}); resp.Code != CodeLocked {
		t.Errorf("replicated lockout not adopted: %+v", resp)
	}
	// Burn two local attempts for carol, then have the "replica" offer
	// a stale 1 — the in-memory 2 must win.
	svc.Handle(ctx, Request{Op: OpLogin, User: "carol", Clicks: clicks(9)})
	svc.Handle(ctx, Request{Op: OpLogin, User: "carol", Clicks: clicks(9)})
	if err := store.SetLockout("carol", 1); err != nil {
		t.Fatal(err)
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

// TestReloadLockoutsSweepKeepsReadoptedCounters: when the first login
// loads a persisted lockout into a map at capacity and then sweeps it
// for a new name, the sweep must keep that user — durably zeroing a
// counter that is live again would hand a guesser a fresh attempt
// budget on the next restart, the exact hole the load closes.
func TestReloadLockoutsSweepKeepsReadoptedCounters(t *testing.T) {
	cfg := testConfig(t, 2)
	const budget = 3
	// Each round loads and sweeps a fresh service, so the sweep walks
	// the map in a different order each time.
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
		// names. A failed login for one more new name loads them and
		// then sweeps the full map; that must still leave target
		// locked in memory AND leave its persisted counter intact.
		if err := store.SetLockout("target", budget); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := store.SetLockout(fmt.Sprintf("new%03d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
		if resp := svc.Handle(context.Background(), Request{Op: OpLogin, User: "probe", Clicks: clicks(9)}); resp.Code != CodeDenied {
			t.Fatalf("round %d: probe login = %+v, want denied", round, resp)
		}
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
