// Command servebench is the end-to-end serving benchmark: it starts a
// real authproto.Server in the process, wired as pwserver is by
// default, drives it from the same process over loopback with two
// closed-loop connections, checks every response against an in-process
// model of the service, and prints the metrics a user of the server
// sees. A separate traced pass times each layer from outside by
// wrapping the interfaces the layer above calls it through.
//
// Usage (run.sh builds the command from the checkout and runs it):
//
//	servebench -workload login -seed 1 -seconds 10 -trace 0   # end-to-end metrics
//	servebench -workload login -seed 1 -trace 1 -out DIR      # per-layer metrics and spans
//	servebench -compare BASE NEW                              # apply BENCHMARK.json's bounds
//	servebench -summary DIR                                   # medians and quartiles of DIR
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The command exits 1 when any response
// disagrees with the model. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// metricDef names a metric, its unit, and which way is better: "lower"
// or "higher".
type metricDef struct{ name, unit, better string }

// The end-to-end metrics BENCHMARK.json bounds, printed by an untraced
// run. heap_mb repeats to within 0.1% between runs of one commit;
// setup_s is timed, so it gets the widest bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
}

// The timing an untraced run also measures: what a user of the server
// waits on. On the shared 2-vCPU virtual machine the benchmark was sized
// on, neighbours slow the whole machine by up to twice for seconds at a
// time, and these spread by 11-59% between runs of one commit, so they
// carry no bound: they go to the result file, where -compare judges
// them by paired runs.
var timing = []metricDef{
	{"goodput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
}

// The per-layer metrics, printed by a traced run. The client's are
// measured in its untraced windows.
var perLayer = []metricDef{
	{"client.goodput_rps", "1/s", "higher"},
	{"client.p50_us", "us", "lower"},
	{"client.p99_us", "us", "lower"},
	{"client.mean_us", "us", "lower"},
	{"authproto.wire_us", "us", "lower"},
	{"authproto.codec_us", "us", "lower"},
	{"authsvc.pipeline_us", "us", "lower"},
	{"authsvc.queue_wait_us", "us", "lower"},
	{"authsvc.self_us", "us", "lower"},
	{"core.us_per_req", "us", "lower"},
	{"core.calls_per_req", "count", "lower"},
	{"vault.us_per_req", "us", "lower"},
	{"vault.get_us", "us", "lower"},
	{"vault.calls_per_req", "count", "lower"},
	{"vault.writes_per_req", "count", "lower"},
	{"vault.wal_bytes_per_write", "B", "lower"},
	{"session.us_per_req", "us", "lower"},
	{"session.cache_hit_ratio", "ratio", "higher"},
	{"repl.lag_records_max", "count", "lower"},
	{"go.alloc_kb_per_req", "KB", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machine records where a result was measured.
type machine struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	VaultFS    string `json:"vault_fs"`
}

// resultFile is what -out writes per run, and what -compare and
// -summary read.
type resultFile struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Trace       bool           `json:"trace"`
	Seconds     float64        `json:"seconds"`
	Machine     machine        `json:"machine"`
	Requests    map[string]int `json:"requests"`
	Compromised int            `json:"compromised,omitempty"`
	resultLine
	Timing map[string]metricValue `json:"timing,omitempty"`
	Ops    []opSummary            `json:"ops,omitempty"`
	Trees  []requestTree          `json:"trees,omitempty"`
}

// metricsOf picks the metrics defs names out of a run's outcome.
func metricsOf(res *outcome, defs []metricDef) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	return m
}

func main() {
	var (
		workloadArg = flag.String("workload", "", "workload to run: login, gateway, writes or attack")
		seed        = flag.Uint64("seed", 1, "seed the run's inputs are generated from")
		seconds     = flag.Float64("seconds", 10, "sizes the run: the measured requests take about this long on the baseline machine")
		traceArg    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
		outDir      = flag.String("out", "", "directory to write the run's result file to (empty: none)")
		workdir     = flag.String("workdir", ".bench_build", "directory for the run's vault directories")
		compare     = flag.Bool("compare", false, "compare the result directories BASE and NEW")
		summary     = flag.Bool("summary", false, "print medians and quartiles of the result directory DIR")
		benchFile   = flag.String("bench", "BENCHMARK.json", "with -compare: the benchmark definition holding the bounds")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: servebench -compare BASE NEW"))
		}
		worse, err := runCompare(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	case *summary:
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: servebench -summary DIR"))
		}
		if err := runSummary(os.Stdout, flag.Arg(0)); err != nil {
			fatal(err)
		}
		return
	}

	w, err := findWorkload(*workloadArg)
	if err != nil {
		fatal(err)
	}
	if *traceArg != 0 && *traceArg != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	o := sized(w, *seconds)
	o.seed, o.trace, o.workdir = *seed, *traceArg == 1, *workdir
	res, err := run(w, o)
	if err != nil {
		fatal(err)
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	defs, kept := endToEnd, timing
	if o.trace {
		defs, kept = perLayer, nil
	}
	line.Metrics = metricsOf(res, defs)
	if *outDir != "" {
		file := resultFile{
			Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: *seconds,
			Machine: machineOf(o.workdir), Requests: res.requests, Compromised: res.compromised,
			resultLine: line, Timing: metricsOf(res, kept), Ops: res.ops, Trees: res.trees,
		}
		if err := writeResult(*outDir, file); err != nil {
			fatal(err)
		}
	}
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "servebench: %d of %d responses disagree with the model; first: %s\n", res.failed, res.attempted, res.firstBad)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

func writeResult(dir string, f resultFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%d.json", f.Workload, f.Seed)
	if f.Trace {
		name = "trace-" + name
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// machineOf describes this machine and the filesystem the vaults live
// on: tmpfs makes fsync look far cheaper than a disk does.
func machineOf(dir string) machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		m.VaultFS = "unknown"
		return m
	}
	switch uint64(st.Type) {
	case 0xef53:
		m.VaultFS = "ext4"
	case 0x01021994:
		m.VaultFS = "tmpfs"
	case 0x58465342:
		m.VaultFS = "xfs"
	case 0x9123683e:
		m.VaultFS = "btrfs"
	case 0x794c7630:
		m.VaultFS = "overlayfs"
	default:
		m.VaultFS = fmt.Sprintf("0x%x", uint64(st.Type))
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}
