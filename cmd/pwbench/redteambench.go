package main

// The -redteam mode: measure the scenario engine's wire-rate — how
// fast the red-team harness can push a streamed victim population and
// the saliency-ordered guess stream through a real serving stack
// (framed-TCP codec, admission limiter, lockout counters). One op is
// one full campaign — server bring-up, streamed enroll, wire attack,
// shutdown — against a fresh vault, so iterations are independent and
// the number captures the end-to-end cost per campaign, not a single
// request; the per-worker rows show how far transport fan-out scales
// it. Recorded as BENCH_redteam.json next to the engine numbers and
// guarded by the same -diff gate.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/imagegen"
	"clickpass/internal/loadtest"
	"clickpass/internal/passpoints"
	"clickpass/internal/scenario"
	"clickpass/internal/study"
	"clickpass/internal/vault"
)

// redteamAccounts is the victim population per campaign; redteamLockout
// the per-account guess budget. Small enough for sub-second campaigns,
// large enough that the fan-out has accounts to spread.
const (
	redteamAccounts = 48
	redteamLockout  = 8
)

// runRedteamBench measures one enroll-and-attack campaign per op at
// each worker count, writes BENCH_redteam.json into outDir, and prints
// a Markdown table. Every campaign gets its own in-process pwserver on
// a fresh vault over loopback TCP — lockout counters and enrolled
// names never leak between iterations, so per-op cost is independent
// of how many iterations the -benchtime budget buys.
func runRedteamBench(outDir string, counts []int, seed uint64) error {
	img := imagegen.Cars()
	fcfg := study.FieldConfig(img, seed)
	fcfg.Passwords = redteamAccounts
	field, err := study.Run(fcfg)
	if err != nil {
		return err
	}
	lab, err := study.Run(study.LabConfig(img, seed+100))
	if err != nil {
		return err
	}
	guesses, err := scenario.Guesses(lab, img, redteamLockout)
	if err != nil {
		return err
	}
	scheme, err := core.NewCentered(13)
	if err != nil {
		return err
	}

	accounts := func(emit func(string, []dataset.Click) error) error {
		for i := range field.Passwords {
			pw := &field.Passwords[i]
			if err := emit(scenario.AccountName(pw.ID), pw.Clicks); err != nil {
				return err
			}
		}
		return nil
	}

	// campaign brings up a fresh server, streams the population in,
	// runs the attack at the given fan-out, and tears the server down.
	campaign := func(workers int) error {
		srv, err := authproto.NewServer(passpoints.Config{
			Image:      geom.Size{W: 451, H: 331},
			Clicks:     5,
			Scheme:     scheme,
			Iterations: 2,
		}, vault.NewSharded(0), redteamLockout)
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() { _ = srv.Serve(l); close(done) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			<-done
		}()
		cfg := scenario.Config{
			Dial:    loadtest.TCPTransport(l.Addr().String(), 5*time.Second),
			Workers: workers,
		}
		users, err := scenario.EnrollStream(cfg, accounts)
		if err != nil {
			return err
		}
		rep, err := scenario.RedTeam(cfg, users, guesses)
		if err != nil {
			return err
		}
		if rep.Incomplete != 0 {
			return fmt.Errorf("%d accounts incomplete", rep.Incomplete)
		}
		return nil
	}

	bench := Bench{Name: "redteam", GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for _, w := range counts {
		var campErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := campaign(w); err != nil {
					campErr = err
					b.FailNow()
				}
			}
		})
		if campErr != nil {
			return fmt.Errorf("redteam workers=%d: %w", w, campErr)
		}
		if r.N == 0 {
			return fmt.Errorf("redteam workers=%d: benchmark did not run", w)
		}
		bench.Runs = append(bench.Runs, Run{
			Workers:     w,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "pwbench: measured redteam campaign at workers=%d\n", w)
	}
	fillSpeedups(bench.Runs)
	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(outDir, "BENCH_redteam.json")
	if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pwbench: wrote %s\n", file)
	fmt.Print(markdownTable([]Bench{bench}))
	return nil
}
