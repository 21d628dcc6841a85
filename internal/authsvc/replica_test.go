package authsvc

import (
	"context"
	"testing"
	"time"

	"clickpass/internal/vault"
	"clickpass/internal/vault/repl"
)

// replLockout is the failed-attempt budget of the replicated-pair
// tests.
const replLockout = 3

// replPair is a quorum primary and an async follower over durable
// stores, with a Service on the primary: the deployment pwserver's
// replication drills run as two processes. The follower acks async so
// that, once promoted without a follower of its own, it can still
// write.
type replPair struct {
	fst          *vault.Durable
	pnode, fnode *repl.Node
	psvc         *Service
}

// newReplPair starts the pair. The primary advertises "primary:1" and
// the follower "follower:1", the addresses not_primary redirects name.
func newReplPair(t *testing.T) *replPair {
	t.Helper()
	quiet := func(string, ...any) {}
	pst, fst := openDurable(t, t.TempDir()), openDurable(t, t.TempDir())
	pnode, err := repl.New(pst, repl.RolePrimary, repl.Options{Listen: "127.0.0.1:0", Advertise: "primary:1",
		Ack: repl.AckQuorum, QuorumTimeout: 10 * time.Second, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pnode.Close() })
	fnode, err := repl.New(fst, repl.RoleFollower, repl.Options{Listen: "127.0.0.1:0", Advertise: "follower:1",
		Primary: pnode.ReplAddr(), Ack: repl.AckAsync, Redial: 20 * time.Millisecond, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fnode.Close() })
	return &replPair{fst: fst, pnode: pnode, fnode: fnode, psvc: nodeService(t, pnode)}
}

// nodeService builds a Service over one node, as its process would.
func nodeService(t *testing.T, node *repl.Node) *Service {
	t.Helper()
	svc, err := NewService(testConfig(t, 2), node, replLockout)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// lockAlice enrolls alice on the primary (the quorum ack doubles as
// the follower attach barrier), locks her out with wrong passwords,
// and waits until her counter is in the follower's store.
func (p *replPair) lockAlice(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	if resp := p.psvc.Handle(ctx, Request{Op: OpEnroll, User: "alice", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	for i := 0; i < replLockout; i++ {
		p.psvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(9)})
	}
	if resp := p.psvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)}); resp.Code != CodeLocked {
		t.Fatalf("primary: alice after %d wrong passwords = %+v, want locked", replLockout, resp)
	}
	waitFor(t, "alice's lockout on the follower", func() bool { return p.fst.Lockouts()["alice"] == replLockout })
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wantNotPrimary fails the test unless resp redirects to primary.
func wantNotPrimary(t *testing.T, what string, resp Response, primary string) {
	t.Helper()
	if resp.Code != CodeNotPrimary || resp.Primary != primary {
		t.Errorf("%s = %+v, want not_primary redirecting to %s", what, resp, primary)
	}
}

// TestFollowerRefusesCredentialOps: a follower checks no credential.
// Its counters may trail the primary's, so a follower that verified
// guesses would grant a fresh budget on an account the primary has
// locked. Every credential op answers not_primary with the primary's
// address, even with the lockout already in the follower's store.
func TestFollowerRefusesCredentialOps(t *testing.T) {
	ctx := context.Background()
	p := newReplPair(t)
	fsvc := nodeService(t, p.fnode) // started with the pair, before any counter
	p.lockAlice(t)

	for i := 0; i < replLockout; i++ {
		resp := fsvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(9)})
		wantNotPrimary(t, "follower wrong-password login", resp, "primary:1")
	}
	resp := fsvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)})
	wantNotPrimary(t, "follower correct-password login", resp, "primary:1")
	resp = fsvc.Handle(ctx, Request{Op: OpChange, User: "alice", Clicks: clicks(0), NewClicks: clicks(5)})
	wantNotPrimary(t, "follower change", resp, "primary:1")
	resp = fsvc.Handle(ctx, Request{Op: OpReset, User: "alice"})
	wantNotPrimary(t, "follower reset", resp, "primary:1")

	if resp := p.psvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)}); resp.Code != CodeLocked {
		t.Errorf("primary after the follower's refusals: %+v, want locked", resp)
	}
}

// TestFencedPrimaryRefusesReplacedPassword: once the follower is
// promoted and alice changes her password there, the fenced old
// primary must neither accept the password she replaced nor ack a
// reset it cannot persist.
func TestFencedPrimaryRefusesReplacedPassword(t *testing.T) {
	ctx := context.Background()
	p := newReplPair(t)
	if resp := p.psvc.Handle(ctx, Request{Op: OpEnroll, User: "alice", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	fsvc := nodeService(t, p.fnode)
	if _, err := p.fnode.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	waitFor(t, "the old primary's fence", func() bool { return p.pnode.Stats().Fenced })
	if resp := fsvc.Handle(ctx, Request{Op: OpChange, User: "alice", Clicks: clicks(0), NewClicks: clicks(5)}); !resp.OK() {
		t.Fatalf("change on the new primary: %+v", resp)
	}

	resp := p.psvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)})
	wantNotPrimary(t, "fenced primary, replaced password", resp, "follower:1")
	resp = p.psvc.Handle(ctx, Request{Op: OpReset, User: "alice"})
	wantNotPrimary(t, "fenced primary reset", resp, "follower:1")

	if resp := fsvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(5)}); !resp.OK() {
		t.Errorf("new password on the new primary: %+v", resp)
	}
}

// TestPromotedFollowerLoadsClearedLockout: a follower process that
// started while alice was locked must not bring that lockout back
// after the primary cleared it. Promoted, it checks alice against the
// counters its log holds now, in which the reset's clear has landed.
func TestPromotedFollowerLoadsClearedLockout(t *testing.T) {
	ctx := context.Background()
	p := newReplPair(t)
	p.lockAlice(t)
	fsvc := nodeService(t, p.fnode) // a follower process started now
	if resp := p.psvc.Handle(ctx, Request{Op: OpReset, User: "alice"}); !resp.OK() {
		t.Fatalf("reset on the primary: %+v", resp)
	}
	waitFor(t, "the clear on the follower", func() bool { return p.fst.Lockouts()["alice"] == 0 })
	if _, err := p.fnode.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if resp := fsvc.Handle(ctx, Request{Op: OpLogin, User: "alice", Clicks: clicks(0)}); !resp.OK() || resp.Remaining != replLockout {
		t.Errorf("alice's correct password on the promoted follower = %+v, want ok with the full budget", resp)
	}
}
