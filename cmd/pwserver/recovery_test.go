package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/dataset"
)

// TestRecoverySmoke is the end-to-end crash drill the CI
// recovery-smoke job runs: build the real pwserver binary, serve a
// durable vault, enroll users and burn a lockout attempt over the real
// wire protocol, SIGKILL the process mid-flight, restart it on the
// same directory, and assert that every acked mutation — records AND
// the lockout counter — survived, with no false accepts.
func TestRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pwserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pwserver: %v\n%s", err, out)
	}
	vaultDir := filepath.Join(dir, "vault.d")

	users := []string{"u-alpha", "u-beta", "u-gamma"}
	const lockout = 5
	ctx := context.Background()

	// First life: enroll, verify, burn one failed attempt.
	addr, kill := startPwserver(t, bin, vaultDir)
	c := dialT(t, addr)
	for i, u := range users {
		resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpEnroll, User: u, Clicks: smokeClicks(i)})
		if err != nil || !resp.OK() {
			t.Fatalf("enroll %s: %+v %v", u, resp, err)
		}
	}
	resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: "u-alpha", Clicks: smokeClicks(40)})
	if err != nil || resp.Code != authsvc.CodeDenied || resp.Remaining != lockout-1 {
		t.Fatalf("burned attempt: %+v %v", resp, err)
	}
	c.Close()
	kill() // SIGKILL: no drain, no Close, no final fsync beyond the acked appends

	// Second life: same directory, fresh process.
	addr, kill2 := startPwserver(t, bin, vaultDir)
	defer kill2()
	c = dialT(t, addr)
	defer c.Close()
	// Before anything clears it: u-alpha's pre-crash burned attempt
	// must still be on the books, so one more failure leaves
	// lockout-2, not lockout-1.
	resp, err = c.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: "u-alpha", Clicks: smokeClicks(40)})
	if err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("post-crash failed login: %+v %v", resp, err)
	}
	if resp.Remaining != lockout-2 {
		t.Errorf("lockout counter lost in crash: remaining = %d, want %d", resp.Remaining, lockout-2)
	}
	for i, u := range users {
		// Every enrolled password still verifies (no false rejects)...
		resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: u, Clicks: smokeClicks(i)})
		if err != nil || !resp.OK() {
			t.Errorf("login %s after crash: %+v %v", u, resp, err)
		}
		// ...and the wrong password still fails (no false accepts).
		resp, err = c.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: u, Clicks: smokeClicks(i + 7)})
		if err != nil || resp.Code != authsvc.CodeDenied {
			t.Errorf("wrong password for %s accepted after crash: %+v %v", u, resp, err)
		}
	}
}

// TestRecoveryCompactionSmoke is the same crash drill against a
// server whose background compactor keeps rewriting its one shard's
// log: a stream of password changes churns that log past the garbage
// ratio until the compaction rename has replaced the file at least
// twice, so the SIGKILL lands in or near a compaction. The restart
// must recover every acked change from whatever log, or stranded
// compaction temp file, the crash left behind.
func TestRecoveryCompactionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pwserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pwserver: %v\n%s", err, out)
	}
	vaultDir := filepath.Join(dir, "vault.d")
	logPath := filepath.Join(vaultDir, "shard-0000.wal")
	ctx := context.Background()

	// First life: enroll, then churn password changes, tracking the
	// last acked password version per user; SIGKILL with no drain.
	addr, kill := startPwserver(t, bin, vaultDir, "-shards", "1")
	c := dialT(t, addr)
	users := []string{"ck-alpha", "ck-beta", "ck-gamma"}
	for i, u := range users {
		resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpEnroll, User: u, Clicks: smokeClicks(i)})
		if err != nil || !resp.OK() {
			t.Fatalf("enroll %s: %+v %v", u, resp, err)
		}
	}
	// Holding the current log open pins its inode, so the file that
	// replaces it cannot reuse the number and fool os.SameFile.
	held, prev := openLog(t, logPath)
	defer func() { held.Close() }()
	// Each change appends its record and its session revocation, so at
	// the default ratio the log is rewritten about every 125 changes.
	// The cap fails the drill if the compactor never runs.
	const maxRounds = 400
	acked := map[string]int{}
	rewrites := 0
	for round := 0; rewrites < 2; round++ {
		if round == maxRounds {
			t.Fatalf("the shard log was replaced %d times in %d rounds of %d changes, want 2: the background compactor never engaged", rewrites, maxRounds, len(users))
		}
		for i, u := range users {
			old, next := acked[u]*len(users)+i, (acked[u]+1)*len(users)+i
			resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpChange, User: u,
				Clicks: smokeClicks(old), NewClicks: smokeClicks(next)})
			if err != nil || !resp.OK() {
				t.Fatalf("change %s round %d: %+v %v", u, round, resp, err)
			}
			acked[u]++
		}
		cur, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(prev, cur) {
			rewrites++
			held.Close()
			held, prev = openLog(t, logPath)
		}
	}
	c.Close()
	kill()

	// Second life: every acked password change must have survived.
	addr, kill2 := startPwserver(t, bin, vaultDir, "-shards", "1")
	defer kill2()
	c = dialT(t, addr)
	defer c.Close()
	for i, u := range users {
		cur := acked[u]*len(users) + i
		resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: u, Clicks: smokeClicks(cur)})
		if err != nil || !resp.OK() {
			t.Errorf("login %s with last acked password after crash: %+v %v", u, resp, err)
		}
		stale := (acked[u]-1)*len(users) + i
		resp, err = c.Do(ctx, authsvc.Request{Op: authsvc.OpLogin, User: u, Clicks: smokeClicks(stale)})
		if err != nil || resp.Code != authsvc.CodeDenied {
			t.Errorf("stale password for %s accepted after crash: %+v %v", u, resp, err)
		}
	}
}

// openLog opens the log at path and returns the file with its info.
func openLog(t *testing.T, path string) (*os.File, os.FileInfo) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	return f, info
}

// startPwserver launches the built binary on the durable backend and
// returns its TCP address and a SIGKILL func.
func startPwserver(t *testing.T, bin, vaultDir string, extraArgs ...string) (addr string, kill func()) {
	t.Helper()
	args := []string{
		"-backend", "durable", "-vault", vaultDir, "-fsync", "always",
		"-tcp", "127.0.0.1:0", "-lockout", "5", "-iterations", "2"}
	cmd := exec.Command(bin, append(args, extraArgs...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	kill = func() {
		if killed {
			return
		}
		killed = true
		_ = cmd.Process.Signal(syscall.SIGKILL)
		_ = cmd.Wait()
	}
	t.Cleanup(kill)

	// The banner carries the bound port: "pwserver: TCP on 127.0.0.1:NNNNN (...)".
	bannerRe := regexp.MustCompile(`TCP on (\S+) `)
	lines := bufio.NewScanner(stdout)
	deadline := time.After(10 * time.Second)
	found := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if m := bannerRe.FindStringSubmatch(lines.Text()); m != nil {
				found <- m[1]
				break
			}
		}
	}()
	select {
	case addr = <-found:
	case <-deadline:
		kill()
		t.Fatal("pwserver never printed its TCP banner")
	}
	// Normalize a [::]/0.0.0.0 bind, just in case.
	if strings.HasPrefix(addr, "[::]") || strings.HasPrefix(addr, "0.0.0.0") {
		addr = "127.0.0.1:" + addr[strings.LastIndex(addr, ":")+1:]
	}
	return addr, kill
}

// dialT dials the framed-TCP client with retries (the listener is up
// before the banner prints, but be tolerant on slow CI).
func dialT(t *testing.T, addr string) authsvc.Client {
	t.Helper()
	var lastErr error
	for i := 0; i < 20; i++ {
		c, err := authproto.Dial(addr, 2*time.Second)
		if err == nil {
			return c
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("dialing %s: %v", addr, lastErr)
	return nil
}

// smokeClicks derives a deterministic 5-click password from a seed.
func smokeClicks(seed int) []dataset.Click {
	out := make([]dataset.Click, 5)
	for i := range out {
		out[i] = dataset.Click{X: 20 + (seed*31+i*83)%400, Y: 15 + (seed*17+i*59)%300}
	}
	return out
}
