package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/geom"
	"clickpass/internal/par"
	"clickpass/internal/passpoints"
	"clickpass/internal/session"
)

// workload is one traffic mix; README.md and BENCHMARK.json say why
// each was chosen. Every workload is a closed loop: conns callers, each
// sending its next request when the previous reply is in.
type workload struct {
	name    string
	backend backend
	http    bool
	primary class   // the requests whose latency is reported end to end
	rate    float64 // requests per second it sustained on the baseline machine
	script  func(p *population, c int, pool *tokenPool, n int) (func() step, error)
}

var workloads = []*workload{
	{
		name:    "login",
		backend: memoryBackend,
		primary: classLogin,
		rate:    6500,
		script: func(p *population, c int, _ *tokenPool, _ int) (func() step, error) {
			return p.loginScript(c), nil
		},
	},
	{
		name:    "gateway",
		backend: memoryBackend,
		http:    true,
		primary: classValidate,
		rate:    16000,
		script: func(p *population, c int, pool *tokenPool, _ int) (func() step, error) {
			return p.gatewayScript(c, pool), nil
		},
	},
	{
		name:    "writes",
		backend: quorumBackend,
		primary: classWrite,
		rate:    2200,
		script: func(p *population, c int, _ *tokenPool, _ int) (func() step, error) {
			return p.writesScript(c), nil
		},
	},
	{
		name:    "attack",
		backend: durableBackend,
		primary: classLogin,
		rate:    5000,
		script: func(p *population, c int, _ *tokenPool, n int) (func() step, error) {
			return p.attackScript(c, n)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options sets one run.
type options struct {
	seed     uint64
	requests int // measured requests per connection
	warmup   int // requests per connection before the measured ones
	trace    bool
	workdir  string        // parent of the run's vault directories
	accounts int           // population size
	tokens   int           // gateway session pool
	cycles   int           // set-ups timed at least; the last one serves the run
	setupFor time.Duration // and set-ups repeat until this has passed
	window   time.Duration // traced run: how long traced and untraced windows alternate
	codes    bool          // keep every response code
}

// Defaults sized on a 2-vCPU box. The session pool is about 3x the
// session tier's 65,536-entry verify cache.
var defaultOptions = options{
	accounts: 10000,
	tokens:   200000,
	cycles:   5,
	setupFor: 5 * time.Second,
	window:   500 * time.Millisecond,
}

// warmupSeconds is the untimed traffic before the measured requests, so
// they do not start on a cold heap and empty caches.
const warmupSeconds = 2

// sized returns the options for a run of w that measures about seconds
// on the baseline machine. The request count is fixed by seconds, not by
// the clock, so every commit serves the same requests: a faster one
// finishes sooner instead of enrolling more accounts or running further
// down the attack's guess list.
func sized(w *workload, seconds float64) options {
	o := defaultOptions
	o.requests = int(math.Ceil(seconds * w.rate / conns))
	o.warmup = int(math.Ceil(warmupSeconds * w.rate / conns))
	return o
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	firstBad          string
	metrics           map[string]float64
	requests          map[string]int // measured requests per class
	compromised       int
	ops               []opSummary
	trees             []requestTree
	codes             [conns][]authsvc.Code
}

// run generates the workload's population and runs it.
func run(w *workload, o options) (*outcome, error) {
	p, err := newPopulation(o.seed, o.accounts)
	if err != nil {
		return nil, err
	}
	return runWith(w, p, o)
}

// runWith runs workload w against population p: prepare the vault,
// set the server up repeatedly, mint the session pool, drive the
// closed loop and compute the metrics.
func runWith(w *workload, p *population, o options) (out *outcome, err error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	prep, err := prepare(p, w.backend, runDir)
	if err != nil {
		return nil, fmt.Errorf("preparing the vault: %w", err)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	st, setups, err := setUp(w, p, prep, runDir, o.cycles, o.setupFor, tr)
	if err != nil {
		return nil, fmt.Errorf("setting up: %w", err)
	}
	defer func() {
		if st == nil {
			return
		}
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutting down: %w", cerr)
		}
	}()
	var pool [conns]tokenPool
	if w.primary == classValidate {
		if err := mintPool(&pool, st.sess, p, o.tokens); err != nil {
			return nil, err
		}
	}
	var next [conns]func() step
	for c := range next {
		if next[c], err = w.script(p, c, &pool[c], o.warmup+o.requests); err != nil {
			return nil, err
		}
	}

	out = &outcome{metrics: map[string]float64{}, requests: map[string]int{}}
	m := measure(st, next, o, tr, out)
	if w.backend == quorumBackend {
		if err := checkFollower(p, st); err != nil {
			return nil, err
		}
	}
	for _, a := range p.accounts {
		if a.cracked {
			out.compromised++
		}
	}

	if o.trace {
		m.perLayer(out, w.primary)
		return out, nil
	}
	// The server's heap is the live heap with it running less the live
	// heap once it is shut down: what the load generator holds (the
	// population, its model state, the token pool, the latencies) is in
	// both and drops out.
	withServer := liveHeap()
	cerr := st.close()
	st = nil
	if cerr != nil {
		return nil, fmt.Errorf("shutting down: %w", cerr)
	}
	out.metrics["heap_mb"] = float64(withServer-liveHeap()) / (1 << 20)
	out.metrics["setup_s"] = median(durationsSeconds(setups))
	out.metrics["goodput_rps"] = m.goodput()
	lat := m.latencies(w.primary)
	out.metrics["latency_p50_ms"] = percentile(lat, 0.50)
	out.metrics["latency_p99_ms"] = percentile(lat, 0.99)
	return out, nil
}

// liveHeap collects garbage and returns the bytes still in use. It
// collects twice: the first collection only moves sync.Pool contents
// (such as the multi-megabyte encoder buffer the vault snapshot left in
// encoding/json's pool) to their victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// mintPool mints the gateway's live sessions with the session tier
// itself, before any timing, and splits them by owner connection.
func mintPool(pool *[conns]tokenPool, m *session.Manager, p *population, n int) error {
	toks, err := par.Map(0, n, func(i int) (string, error) {
		return m.Mint(p.accounts[i%len(p.accounts)].name)
	})
	if err != nil {
		return fmt.Errorf("minting the session pool: %w", err)
	}
	for i, t := range toks {
		owner := i % len(p.accounts)
		pool[p.accounts[owner].conn].add(t, owner)
	}
	return nil
}

// connResult is what one connection's caller saw.
type connResult struct {
	attempted, failed int
	firstBad          string
	correct           int
	lat               [numClasses][]time.Duration // measured window only
	last              time.Time                   // end of its last measured request
	byMode            [2]modeStats                // traced run: untraced and traced windows
	codes             []authsvc.Code
}

type modeStats struct {
	n, correct int
	sum        time.Duration
	lat        [numClasses][]time.Duration
}

// measurement holds a finished run's raw numbers.
type measurement struct {
	start  time.Time
	conns  [conns]connResult
	win    *windows
	mem    [2]runtime.MemStats
	hits   [2]map[string]float64 // session registry at window start and end
	lagMax uint64
}

// measure drives the closed loop: each connection sends its warm-up
// requests, waits for the other, then sends its measured requests.
func measure(st *stack, next [conns]func() step, o options, tr *tracer, out *outcome) *measurement {
	m := &measurement{}
	var warm, wg sync.WaitGroup
	warm.Add(conns)
	measuring := make(chan struct{})
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &m.conns[c]
			ok := drive(c, st.clients[c], next[c], o.warmup, false, o.codes, nil, r)
			warm.Done()
			<-measuring
			if ok {
				drive(c, st.clients[c], next[c], o.requests, true, o.codes, tr, r)
			}
		}(c)
	}
	warm.Wait()
	runtime.ReadMemStats(&m.mem[0])
	m.hits[0] = scrape(st.sess.WritePrometheus)
	if tr != nil {
		m.win = newWindows(st, tr)
	}
	m.start = time.Now()
	close(measuring)

	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		flip := time.NewTicker(o.window)
		defer flip.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if st.pnode != nil {
					for _, f := range st.pnode.Stats().Followers {
						m.lagMax = max(m.lagMax, f.LagRecords)
					}
				}
			case <-flip.C:
				if m.win != nil {
					m.win.flip()
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	bg.Wait()
	if m.win != nil {
		m.win.close()
	}
	runtime.ReadMemStats(&m.mem[1])
	m.hits[1] = scrape(st.sess.WritePrometheus)

	for c := range m.conns {
		r := &m.conns[c]
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstBad == "" {
			out.firstBad = r.firstBad
		}
		out.codes[c] = r.codes
		for cls := range r.lat {
			out.requests[classNames[cls]] += len(r.lat[cls])
		}
	}
	return m
}

// drive is one closed-loop caller sending n requests of its script;
// measured ones are timed. It reports false when the connection broke,
// which leaves it out of step with the model.
func drive(c int, cli authsvc.Client, next func() step, n int, measured, codes bool, tr *tracer, r *connResult) bool {
	ctx := context.Background()
	for i := range n {
		s := next()
		mode := 0
		if tr != nil {
			tr.begin(c, int64(i*conns+c))
			mode = modeOf(tr)
		}
		t0 := time.Now()
		resp, err := cli.Do(ctx, s.req)
		d := time.Since(t0)
		r.attempted++
		ok := err == nil && s.matches(resp)
		if !ok {
			r.failed++
			if r.firstBad == "" {
				r.firstBad = fmt.Sprintf("%s %s: got %q (%v), want %q", s.req.Op, s.acc.name, resp.Code, err, s.want)
			}
		}
		if codes {
			r.codes = append(r.codes, resp.Code)
		}
		if err != nil {
			return false
		}
		if !measured {
			continue
		}
		if ok {
			r.correct++
		}
		r.lat[s.cls] = append(r.lat[s.cls], d)
		r.last = t0.Add(d)
		if tr != nil && modeOf(tr) == mode {
			ms := &r.byMode[mode]
			ms.n++
			ms.sum += d
			ms.lat[s.cls] = append(ms.lat[s.cls], d)
			if ok {
				ms.correct++
			}
		}
	}
	return true
}

func modeOf(tr *tracer) int {
	if tr.on.Load() {
		return 1
	}
	return 0
}

func (m *measurement) goodput() float64 {
	var correct int
	var last time.Time
	for _, r := range m.conns {
		correct += r.correct
		if r.last.After(last) {
			last = r.last
		}
	}
	return float64(correct) / last.Sub(m.start).Seconds()
}

// latencies returns the measured latencies of class cls in
// milliseconds, sorted.
func (m *measurement) latencies(cls class) []float64 {
	var out []float64
	for _, r := range m.conns {
		for _, d := range r.lat[cls] {
			out = append(out, float64(d)/1e6)
		}
	}
	slices.Sort(out)
	return out
}

// windows alternates a traced run between untraced (0) and traced (1)
// windows and accumulates, per mode, the server registry's pipeline
// totals, the tracer's totals and the vault directory's growth.
type windows struct {
	st    *stack
	tr    *tracer
	mode  int
	since time.Time
	prev  snapshot
	acc   [2]snapshot
	dur   [2]time.Duration
}

type snapshot struct {
	pipeSum, pipeCount, queueSum float64 // seconds, requests, seconds
	ops                          totals
	wal                          int64
}

// newWindows starts in the traced mode, so a run shorter than one
// window is traced throughout.
func newWindows(st *stack, tr *tracer) *windows {
	w := &windows{st: st, tr: tr, since: time.Now(), mode: 1}
	w.prev = w.take()
	tr.on.Store(true)
	return w
}

func (w *windows) take() snapshot {
	reg := scrape(w.st.srv.Metrics().WritePrometheus)
	s := snapshot{
		pipeSum:   reg["authsvc_request_duration_seconds_sum"],
		pipeCount: reg["authsvc_request_duration_seconds_count"],
		queueSum:  reg["authsvc_queue_wait_seconds_sum"],
		ops:       w.tr.totals(),
	}
	if w.st.primary != nil {
		s.wal = dirBytes(w.st.dir)
	}
	return s
}

// flip closes the current window and opens one of the other mode.
func (w *windows) flip() { w.switchTo(1 - w.mode) }

// close closes the current window and stops tracing.
func (w *windows) close() { w.switchTo(0) }

func (w *windows) switchTo(mode int) {
	cur := w.take()
	now := time.Now()
	a := &w.acc[w.mode]
	a.pipeSum += cur.pipeSum - w.prev.pipeSum
	a.pipeCount += cur.pipeCount - w.prev.pipeCount
	a.queueSum += cur.queueSum - w.prev.queueSum
	a.ops = a.ops.add(cur.ops.sub(w.prev.ops))
	a.wal += cur.wal - w.prev.wal
	w.dur[w.mode] += now.Sub(w.since)
	w.prev, w.since, w.mode = cur, now, mode
	w.tr.on.Store(mode == 1)
}

// perLayer computes the per-layer metrics from the traced windows,
// except the client's goodput and percentiles, which come from the
// untraced ones. Every per-request time is a mean over the requests the
// server completed in traced windows, so the layers add up: client =
// wire + pipeline, pipeline = self + core + vault + session.
func (m *measurement) perLayer(out *outcome, primary class) {
	on := m.win.acc[1]
	tot := on.ops
	n := max(on.pipeCount, 1)
	perReq := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	coreCalls, coreNs := tot.layerTotal(layerCore)
	vaultCalls, vaultNs := tot.layerTotal(layerVault)
	_, sessNs := tot.layerTotal(layerSession)
	serverCalls, serverNs := tot.layerTotal(layerAuthproto)

	var client modeStats
	var plain []float64 // the primary class's latencies in untraced windows, in microseconds
	var rps [2]float64
	for _, r := range m.conns {
		client.n += r.byMode[1].n
		client.sum += r.byMode[1].sum
		for _, d := range r.byMode[0].lat[primary] {
			plain = append(plain, float64(d)/1e3)
		}
		for mode := range rps {
			rps[mode] += float64(r.byMode[mode].correct)
		}
	}
	for mode := range rps {
		if s := m.win.dur[mode].Seconds(); s > 0 {
			rps[mode] /= s
		}
	}
	clientUs := float64(client.sum) / 1e3 / float64(max(client.n, 1))
	slices.Sort(plain)
	pipelineUs := on.pipeSum * 1e6 / n
	children := coreNs + vaultNs - tot.nested + sessNs
	var writes int64
	for _, o := range []op{opPut, opReplace, opDelete, opSetLockout, opSetKV} {
		writes += tot.calls[o]
	}
	var requests int
	for _, r := range m.conns {
		for _, l := range r.lat {
			requests += len(l)
		}
	}
	hits := m.hits[1]["session_verify_cache_hits_total"] - m.hits[0]["session_verify_cache_hits_total"]
	var validates float64
	for k, v := range m.hits[1] {
		if strings.HasPrefix(k, "session_validate_total{") {
			validates += v - m.hits[0][k]
		}
	}

	set := func(name string, v float64) { out.metrics[name] = v }
	set("client.goodput_rps", rps[0])
	set("client.p50_us", percentile(plain, 0.50))
	set("client.p99_us", percentile(plain, 0.99))
	set("client.mean_us", clientUs)
	set("authproto.wire_us", clientUs-pipelineUs)
	set("authproto.codec_us", ratio(float64(serverNs)/1e3, float64(serverCalls))-pipelineUs)
	set("authsvc.pipeline_us", pipelineUs)
	set("authsvc.queue_wait_us", on.queueSum*1e6/n)
	set("authsvc.self_us", pipelineUs-perReq(children))
	set("core.us_per_req", perReq(coreNs))
	set("core.calls_per_req", float64(coreCalls)/n)
	set("vault.us_per_req", perReq(vaultNs))
	set("vault.get_us", ratio(float64(tot.total[opGet])/1e3, float64(tot.calls[opGet])))
	set("vault.calls_per_req", float64(vaultCalls)/n)
	set("vault.writes_per_req", float64(writes)/n)
	set("vault.wal_bytes_per_write", ratio(float64(on.wal), float64(writes)))
	set("session.us_per_req", perReq(sessNs-tot.nested))
	set("session.cache_hit_ratio", ratio(hits, validates))
	set("repl.lag_records_max", float64(m.lagMax))
	set("go.alloc_kb_per_req", ratio(float64(m.mem[1].TotalAlloc-m.mem[0].TotalAlloc)/1024, float64(requests)))
	set("go.gc_pause_ms", float64(m.mem[1].PauseTotalNs-m.mem[0].PauseTotalNs)/1e6)
	set("trace.overhead_pct", 100*ratio(rps[0]-rps[1], rps[0]))

	out.ops = m.win.tr.summarize(tot, int64(n))
	out.trees = m.win.tr.trees(200)
}

// checkFollower verifies every account an acked enroll or change
// wrote: the follower holds the primary's record byte for byte, and
// that record verifies the account's current password.
func checkFollower(p *population, st *stack) error {
	var written []*account
	for _, a := range p.accounts {
		if a.written {
			written = append(written, a)
		}
	}
	for c := range p.created {
		written = append(written, p.created[c]...)
	}
	bad, err := par.Map(0, len(written), func(i int) (string, error) {
		a := written[i]
		pr, err := st.primary.Get(a.name)
		if err != nil {
			return a.name + " missing on the primary", nil
		}
		fr, err := st.follower.Get(a.name)
		if err != nil {
			return a.name + " missing on the follower", nil
		}
		pb, _ := pr.Marshal()
		fb, _ := fr.Marshal()
		if string(pb) != string(fb) {
			return a.name + " differs between primary and follower", nil
		}
		pts := make([]geom.Point, len(a.clicks))
		for j, c := range a.clicks {
			pts[j] = c.Point()
		}
		if ok, err := passpoints.Verify(p.cfg, fr, pts); err != nil || !ok {
			return a.name + " does not verify its current password on the follower", nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	for _, b := range bad {
		if b != "" {
			return errors.New("follower check: " + b)
		}
	}
	return nil
}

// scrape reads a Prometheus text exposition into series -> value.
func scrape(write func(io.Writer)) map[string]float64 {
	var sb strings.Builder
	write(&sb)
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
