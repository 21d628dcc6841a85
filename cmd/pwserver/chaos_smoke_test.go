package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"

	"clickpass/internal/authsvc"
	"clickpass/internal/dataset"
)

// TestChaosSmoke starts the real binary with -chaos seed=1,err=1, which
// wraps its store in vault.Flaky with every store call failing: a ping
// touches no store and answers ok, while an enroll's Put is refused and
// answers internal.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real server binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pwserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pwserver: %v\n%s", err, out)
	}
	addr, kill := startPwserver(t, bin, filepath.Join(dir, "vault.d"), "-chaos", "seed=1,err=1")
	defer kill()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	if resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpPing}); err != nil || resp.Code != authsvc.CodeOK {
		t.Errorf("ping under -chaos err=1: %+v %v, want %q", resp, err, authsvc.CodeOK)
	}
	clicks := []dataset.Click{{X: 30, Y: 40}, {X: 120, Y: 300}, {X: 222, Y: 51}, {X: 400, Y: 200}, {X: 77, Y: 160}}
	resp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpEnroll, User: "chaos", Clicks: clicks})
	if err != nil || resp.Code != authsvc.CodeInternal {
		t.Errorf("enroll under -chaos err=1: %+v %v, want %q", resp, err, authsvc.CodeInternal)
	}
}
