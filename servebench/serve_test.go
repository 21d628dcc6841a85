package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/vault"
)

// shortOptions runs about 300 requests against a 200-account
// population, alternating traced and untraced windows often enough that
// a traced run has both.
func shortOptions(t *testing.T, seed uint64) options {
	o := defaultOptions
	o.seed = seed
	o.workdir = t.TempDir()
	o.accounts = 200
	o.tokens = 2000
	o.cycles, o.setupFor = 2, 0
	o.warmup, o.requests = 20, 130
	o.window = 2 * time.Millisecond
	return o
}

// TestMetricsMatchBenchmark checks that the metrics the command prints
// are the ones BENCHMARK.json defines, with the same units and
// directions.
func TestMetricsMatchBenchmark(t *testing.T) {
	type metric struct{ Name, Unit, Better string }
	var def struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		printed []metricDef
		defined []metric
	}{{endToEnd, def.EndToEnd}, {perLayer, def.PerLayer}} {
		var got []metric
		for _, d := range c.printed {
			got = append(got, metric{d.name, d.unit, d.better})
		}
		if !slices.Equal(got, c.defined) {
			t.Errorf("printed metrics %v, BENCHMARK.json defines %v", got, c.defined)
		}
	}
}

// TestShortRun runs every workload untraced and traced and checks that
// no response disagrees with the model and that every metric is
// reported and finite, the untraced ones above zero, and the traced
// per-layer means add up to the client's mean latency.
func TestShortRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := shortOptions(t, 7)
				o.trace = traced
				out, err := run(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted != conns*(o.warmup+o.requests) {
					t.Fatalf("trace=%v: %d of %d requests failed (first: %s)", traced, out.failed, out.attempted, out.firstBad)
				}
				defs := slices.Concat(endToEnd, timing)
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					v, ok := out.metrics[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace=%v: metric %s = %v (reported: %v)", traced, d.name, v, ok)
					}
					if !traced && v <= 0 {
						t.Errorf("metric %s = %v, want > 0", d.name, v)
					}
				}
				if !traced {
					continue
				}
				m := out.metrics
				parts := m["authproto.wire_us"] + m["authsvc.self_us"] + m["core.us_per_req"] + m["vault.us_per_req"] + m["session.us_per_req"]
				if math.Abs(parts-m["client.mean_us"]) > 0.1*m["client.mean_us"] || m["authsvc.self_us"] < 0 {
					t.Errorf("layers add up to %.1fus (self %.1fus), client mean %.1fus", parts, m["authsvc.self_us"], m["client.mean_us"])
				}
			}
		})
	}
}

// TestTraceTransparent checks that tracing changes no answer: on one
// seed, the traced and untraced runs get identical per-request codes,
// and the traced durable store keeps the extensions authsvc and the
// session tier type-assert for.
func TestTraceTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var codes [2][conns][]authsvc.Code
			for i, traced := range []bool{false, true} {
				o := shortOptions(t, 11)
				o.trace, o.codes = traced, true
				out, err := run(w, o)
				if err != nil {
					t.Fatal(err)
				}
				codes[i] = out.codes
			}
			for c := range codes[0] {
				if !slices.Equal(codes[0][c], codes[1][c]) {
					t.Errorf("connection %d: traced codes differ from untraced", c)
				}
			}
		})
	}

	d, err := vault.OpenDurable(t.TempDir(), durableOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := newTracer().store(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(vault.LockoutStore); !ok {
		t.Error("traced durable store lost vault.LockoutStore")
	}
	if _, ok := s.(vault.KVStore); !ok {
		t.Error("traced durable store lost vault.KVStore")
	}
}

// TestModelMismatchFails flips one expected outcome — the first login
// of connection 0 is predicted locked out — and checks that the run
// reports the disagreement.
func TestModelMismatchFails(t *testing.T) {
	o := shortOptions(t, 13)
	p, err := newPopulation(o.seed, o.accounts)
	if err != nil {
		t.Fatal(err)
	}
	p.logins[0][0].acc.failures = lockout
	w, err := findWorkload("login")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runWith(w, p, o)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 || out.firstBad == "" {
		t.Fatalf("run with a flipped expectation reported %d failures", out.failed)
	}
}

// TestAttackSinglePass checks that the attack refuses a run long enough
// to need a second pass of its guess list, which would lock its victims
// out.
func TestAttackSinglePass(t *testing.T) {
	p, err := newPopulation(17, 200)
	if err != nil {
		t.Fatal(err)
	}
	capacity := len(p.own(0)) * len(p.guesses[0])
	if _, err := p.attackScript(0, 2*capacity); err != nil {
		t.Fatalf("a single pass was refused: %v", err)
	}
	if _, err := p.attackScript(0, 2*capacity+2); err == nil {
		t.Fatal("a run needing a second pass was accepted")
	}
}
