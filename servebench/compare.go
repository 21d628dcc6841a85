package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json -compare applies.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is how many (base, new) runs of one seed a verdict needs.
const minPairs = 10

// loadResults reads the result files of dir, keyed by workload and
// seed. Traced results are skipped unless traced is set.
func loadResults(dir string, traced bool) (map[string]map[uint64]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[uint64]resultFile)
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.Workload == "" || f.Trace != traced {
			continue
		}
		if out[f.Workload] == nil {
			out[f.Workload] = make(map[uint64]resultFile)
		}
		out[f.Workload][f.Seed] = f
	}
	return out, nil
}

// verdict classifies one (workload, metric) row by the pairs rule:
//
//   - improved: the new run wins at least 9 of every 10 pairs (ties
//     count for neither side) and the medians differ by more than the
//     base runs' own interquartile range;
//   - worse: the new median is worse than the base median by more than
//     the metric's bound or, for a metric without one (bound 0), the
//     base run wins as improved would require of the new one;
//   - unresolved: fewer than minPairs pairs, a metric without a bound
//     that is neither, or base runs spread wider than the bound so
//     "unchanged" cannot be claimed, unless every new run beats every
//     base run;
//   - unchanged: otherwise.
func verdict(base, cur []float64, lowerBetter bool, bound float64) string {
	if len(base) < minPairs {
		return "unresolved"
	}
	better := func(a, b float64) bool { // a is better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	bm, cm := median(base), median(cur)
	q1, q3 := quartiles(base)
	// wins reports whether a beats b by the pairs rule.
	wins := func(a, b []float64, am, bm float64) bool {
		n := 0
		for i := range a {
			if better(a[i], b[i]) {
				n++
			}
		}
		return 10*n >= 9*len(a) && better(am, bm) && abs(am-bm) > q3-q1
	}
	switch {
	case wins(cur, base, cm, bm):
		return "improved"
	case bound == 0 && wins(base, cur, bm, cm), bound > 0 && better(bm, cm) && abs(cm-bm) > bound*abs(bm):
		return "worse"
	case bound == 0, q3-q1 > bound*abs(bm) && !allBetter(cur, base, better):
		return "unresolved"
	}
	return "unchanged"
}

func allBetter(cur, base []float64, better func(a, b float64) bool) bool {
	for _, c := range cur {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// runCompare applies BENCHMARK.json's bounds to every (workload,
// end-to-end metric) pair of two result directories, pairing runs by
// seed, and judges the unbounded timing metrics by the pairs rule
// alone. It reports whether any row got worse, or any workload's share
// of failed requests grew.
func runCompare(w io.Writer, benchPath, baseDir, newDir string) (bool, error) {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	type row struct {
		name, better string
		bound        float64
		get          func(resultFile) float64
	}
	var rows []row
	for _, m := range def.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, m.Bound, func(f resultFile) float64 { return f.Metrics[m.Name].Value }})
	}
	for _, m := range timing {
		rows = append(rows, row{m.name, m.better, 0, func(f resultFile) float64 { return f.Timing[m.name].Value }})
	}
	base, err := loadResults(baseDir, false)
	if err != nil {
		return false, err
	}
	cur, err := loadResults(newDir, false)
	if err != nil {
		return false, err
	}
	if len(base) == 0 || len(cur) == 0 {
		return false, fmt.Errorf("%s or %s holds no untraced result files", baseDir, newDir)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tpairs\tbase median [q1, q3]\tnew median\tchange\tverdict")
	worse := false
	for _, wl := range workloads {
		var seeds []uint64
		for s := range base[wl.name] {
			if _, ok := cur[wl.name][s]; ok {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			continue
		}
		slices.Sort(seeds)
		for _, r := range rows {
			var bv, cv []float64
			for _, s := range seeds {
				bv = append(bv, r.get(base[wl.name][s]))
				cv = append(cv, r.get(cur[wl.name][s]))
			}
			v := verdict(bv, cv, r.better == "lower", r.bound)
			worse = worse || v == "worse"
			bm, cm := median(bv), median(cv)
			q1, q3 := quartiles(bv)
			bound := "none"
			if r.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*r.bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g\t%+.1f%%\t%s\n",
				wl.name, r.name, bound, len(seeds), bm, q1, q3, cm, 100*ratio(cm-bm, bm), v)
		}
		bs, cs := errorShare(base[wl.name]), errorShare(cur[wl.name])
		v := "unchanged"
		if cs > bs {
			v, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\terror_share\tany\t%d\t%.4g\t%.4g\t\t%s\n", wl.name, len(seeds), bs, cs, v)
	}
	return worse, tw.Flush()
}

// errorShare is failed requests over attempted requests across runs.
func errorShare(runs map[uint64]resultFile) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// summaryDoc is the baseline -summary prints: per workload, each
// end-to-end and timing metric's median and quartiles over the untraced
// runs, and the per-layer table of one traced run.
type summaryDoc struct {
	Machine   machine                    `json:"machine"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Runs     int                    `json:"runs"`
	Seeds    []uint64               `json:"seeds"`
	Requests map[string]int         `json:"requests_median"`
	EndToEnd map[string]quantiles   `json:"end_to_end"`
	Timing   map[string]quantiles   `json:"timing"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Ops      []opSummary            `json:"ops,omitempty"`
}

type quantiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

func runSummary(w io.Writer, dir string) error {
	runs, err := loadResults(dir, false)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s holds no untraced result files", dir)
	}
	traced, err := loadResults(dir, true)
	if err != nil {
		return err
	}
	doc := summaryDoc{Workloads: make(map[string]workloadSummary)}
	for name, bySeed := range runs {
		var seeds []uint64
		for s := range bySeed {
			seeds = append(seeds, s)
		}
		slices.Sort(seeds)
		ws := workloadSummary{Runs: len(seeds), Seeds: seeds, Requests: map[string]int{}}
		spread := func(defs []metricDef, get func(resultFile) map[string]metricValue) map[string]quantiles {
			out := make(map[string]quantiles, len(defs))
			for _, d := range defs {
				var v []float64
				for _, s := range seeds {
					v = append(v, get(bySeed[s])[d.name].Value)
				}
				q1, q3 := quartiles(v)
				out[d.name] = quantiles{Median: median(v), Q1: q1, Q3: q3, Unit: d.unit}
			}
			return out
		}
		ws.EndToEnd = spread(endToEnd, func(f resultFile) map[string]metricValue { return f.Metrics })
		ws.Timing = spread(timing, func(f resultFile) map[string]metricValue { return f.Timing })
		for cls := range classNames {
			var v []float64
			for _, s := range seeds {
				v = append(v, float64(bySeed[s].Requests[classNames[cls]]))
			}
			if n := int(median(v)); n > 0 {
				ws.Requests[classNames[cls]] = n
			}
		}
		first := bySeed[seeds[0]]
		doc.Machine, doc.Seconds = first.Machine, first.Seconds
		if t, ok := firstRun(traced[name]); ok {
			ws.PerLayer, ws.Ops = t.Metrics, t.Ops
		}
		doc.Workloads[name] = ws
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// firstRun returns the run with the lowest seed.
func firstRun(runs map[uint64]resultFile) (resultFile, bool) {
	var seeds []uint64
	for s := range runs {
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		return resultFile{}, false
	}
	slices.Sort(seeds)
	return runs[seeds[0]], true
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default exclusive
// method), which is how the benchmark's spread is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
