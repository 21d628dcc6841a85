package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clickpass/internal/authsvc"
)

// pickPort reserves a loopback port by binding and immediately
// releasing it — the replication and admin listeners need addresses
// known before the process starts (their banners echo the flag, not
// the bound port).
func pickPort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// TestReplSmoke is the end-to-end failover drill the CI
// replication-smoke job runs: build the real pwserver binary, start a
// quorum primary and a follower as separate processes with separate
// vault directories, enroll users and burn a lockout attempt against
// the primary over the real wire protocol, check that the follower
// redirects a login and a reset instead of serving them, SIGKILL the
// primary, promote the follower through its admin endpoint, and assert
// every acked mutation — records AND the lockout counter — is served
// by the survivor, with no false accepts.
func TestReplSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server binaries; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pwserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pwserver: %v\n%s", err, out)
	}
	var (
		pRepl  = fmt.Sprintf("127.0.0.1:%d", pickPort(t))
		fRepl  = fmt.Sprintf("127.0.0.1:%d", pickPort(t))
		fAdmin = fmt.Sprintf("127.0.0.1:%d", pickPort(t))
	)
	ctx := context.Background()

	// Primary: quorum acks — every OK response this test sees is
	// already fsynced on the follower, which is the whole basis of the
	// post-kill assertions. Follower: async, so that once promoted
	// (and follower-less) it still acks writes such as lockout
	// persists.
	pAddr, killPrimary := startPwserver(t, bin, filepath.Join(dir, "vault-a.d"),
		"-role", "primary", "-repl-listen", pRepl, "-repl-ack", "quorum")
	fAddr, killFollower := startPwserver(t, bin, filepath.Join(dir, "vault-b.d"),
		"-role", "follower", "-repl-primary", pRepl, "-repl-listen", fRepl,
		"-repl-ack", "async", "-metrics", fAdmin)
	defer killFollower()

	users := []string{"r-alpha", "r-beta", "r-gamma"}
	const lockout = 5
	c := dialT(t, pAddr)
	for i, u := range users {
		// The first enroll doubles as the attach barrier: its quorum
		// ack cannot arrive until the follower is connected and
		// streaming.
		resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpEnroll, User: u, Clicks: smokeClicks(i)})
		if err != nil || !resp.OK() {
			t.Fatalf("enroll %s: %+v %v", u, resp, err)
		}
	}
	resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: "r-alpha", Clicks: smokeClicks(40)})
	if err != nil || resp.Code != authsvc.CodeDenied || resp.Remaining != lockout-1 {
		t.Fatalf("burned attempt: %+v %v", resp, err)
	}
	c.Close()

	// Only the primary checks a password: the follower redirects a
	// wrong-password login on its TCP front, and a reset on its admin
	// listener (every node's TCP front refuses resets), instead of
	// charging or clearing r-alpha's budget. The lockout-2 check after
	// the failover then shows it charged nothing.
	fc := dialT(t, fAddr)
	resp, err = fc.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: "r-alpha", Clicks: smokeClicks(40)})
	if err != nil || resp.Code != authsvc.CodeNotPrimary {
		t.Fatalf("follower wrong-password login: %+v %v, want not_primary", resp, err)
	}
	fc.Close()
	status, reset := postAdmin(t, "http://"+fAdmin+"/v1/reset", `{"user":"r-alpha"}`)
	if status != http.StatusMisdirectedRequest || !strings.Contains(reset, `"code":"not_primary"`) {
		t.Fatalf("follower reset: HTTP %d %s, want 421 not_primary", status, reset)
	}
	killPrimary() // SIGKILL: no drain, no fence, no goodbye

	// Failover: promote the follower via its admin surface.
	promote, err := http.Post("http://"+fAdmin+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	var pr struct {
		OK    bool   `json:"ok"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(promote.Body).Decode(&pr); err != nil || promote.StatusCode != http.StatusOK || !pr.OK || pr.Epoch == 0 {
		t.Fatalf("promote response: status=%d body=%+v err=%v", promote.StatusCode, pr, err)
	}
	promote.Body.Close()

	// The admin surface must reflect the flip before any traffic moves.
	metrics, err := http.Get("http://" + fAdmin + "/metrics")
	if err != nil {
		t.Fatalf("survivor metrics: %v", err)
	}
	body, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	for _, want := range []string{
		`repl_role{role="primary"} 1`,
		fmt.Sprintf("repl_epoch %d", pr.Epoch),
		"\nrepl_retained_bytes ",
		`vault_shard_up{shard="0"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("survivor /metrics missing %q", want)
		}
	}

	sc := dialT(t, fAddr)
	defer sc.Close()
	// The burned attempt must be on the survivor's books: one more
	// failure leaves lockout-2, not lockout-1.
	resp, err = sc.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: "r-alpha", Clicks: smokeClicks(40)})
	if err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("post-failover failed login: %+v %v", resp, err)
	}
	if resp.Remaining != lockout-2 {
		t.Errorf("lockout counter lost in failover: remaining = %d, want %d", resp.Remaining, lockout-2)
	}
	for i, u := range users {
		resp, err := sc.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: u, Clicks: smokeClicks(i)})
		if err != nil || !resp.OK() {
			t.Errorf("login %s on survivor: %+v %v", u, resp, err)
		}
		resp, err = sc.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: u, Clicks: smokeClicks(i + 7)})
		if err != nil || resp.Code != authsvc.CodeDenied {
			t.Errorf("wrong password for %s accepted on survivor: %+v %v", u, resp, err)
		}
	}
	// And the survivor accepts new enrollments — life goes on at the
	// new epoch.
	resp, err = sc.Do(ctx, authsvc.Request{Op: authsvc.OpEnroll, User: "r-post", Clicks: smokeClicks(9)})
	if err != nil || !resp.OK() {
		t.Errorf("post-failover enroll: %+v %v", resp, err)
	}
}

// postAdmin POSTs body to an admin route, retrying until the listener
// is up, and returns the status and body.
func postAdmin(t *testing.T, url, body string) (int, string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return resp.StatusCode, string(b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("POST %s: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
