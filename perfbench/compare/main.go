// Command compare sets a change's benchmark runs against its parent's. It
// reads the JSON-line records perfbench writes with --out, one file per
// commit, and for each workload and end-to-end metric of BENCHMARK.json
// prints one verdict:
//
//   - improved: the change wins at least nine tenths of the pairs (runs of
//     the same seed), over at least ten pairs, and the medians differ by
//     more than the parent's own quartile spread;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: the parent's spread is wider than the bound, and not every
//     change run reads better than every parent run;
//   - within bound: otherwise.
//
// Per-layer counts a workload owns are printed from its traced runs as
// counts beside each other, never as speed-ups. The exit status is 1 when
// any metric is worse.
//
//	go run ./perfbench/compare parent.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type bench struct {
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// record is the subset of a perfbench record the comparison reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	} `json:"result"`
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Smoke bool    `json:"smoke"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with each metric's bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var b bench
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", *benchPath+":", err)
		return 2
	}
	var runs [2][]record
	for i := range runs {
		if runs[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
	}
	if compare(stdout, b, runs[0], runs[1]) {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// sample is one value of a metric and the seed it was measured on.
type sample struct {
	seed  int64
	value float64
}

// samples collects metric name's values from the records of one workload
// and trace mode.
func samples(recs []record, workload string, trace bool, name string) []sample {
	var out []sample
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		ms := r.Result.EndToEnd
		if trace {
			ms = r.Result.PerLayer
		}
		for _, m := range ms {
			if m.Name == name && !m.Smoke {
				out = append(out, sample{r.Seed, m.Value})
			}
		}
	}
	return out
}

// compare prints the verdict table and reports whether any metric is worse.
func compare(w io.Writer, b bench, parent, change []record) bool {
	workloads := map[string]bool{}
	for _, r := range append(append([]record(nil), parent...), change...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	anyWorse := false
	fmt.Fprintf(w, "%-8s %-14s %12s %12s %7s %7s %6s  %s\n", "workload", "metric", "parent", "change", "change%", "spread", "wins", "verdict")
	for _, wl := range names {
		for _, s := range b.EndToEnd {
			p, c := samples(parent, wl, false, s.Name), samples(change, wl, false, s.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(s, p, c)
			anyWorse = anyWorse || v.verdict == "worse"
			fmt.Fprintf(w, "%-8s %-14s %12.6g %12.6g %+6.1f%% %6.1f%% %6s  %s\n",
				wl, s.Name, v.parentMedian, v.changeMedian, 100*v.change, 100*v.spread,
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
		for _, s := range b.PerLayer {
			if s.Unit != "count" {
				continue
			}
			p, c := samples(parent, wl, true, s.Name), samples(change, wl, true, s.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pm, cm := median(values(p)), median(values(c))
			if pm != cm {
				fmt.Fprintf(w, "%-8s count %-28s %.0f -> %.0f (%+.0f)\n", wl, s.Name, pm, cm, cm-pm)
			}
		}
	}
	return anyWorse
}

type verdict struct {
	parentMedian, changeMedian float64
	change                     float64 // signed share of the parent median; positive is worse
	spread                     float64 // parent's quartile distance over its median
	wins, pairs                int
	verdict                    string
}

// judge applies the comparison rules to one workload and metric.
func judge(s spec, parent, change []sample) verdict {
	pv, cv := values(parent), values(change)
	v := verdict{parentMedian: median(pv), changeMedian: median(cv)}
	better := func(c, p float64) bool {
		if s.Better == "higher" {
			return c > p
		}
		return c < p
	}
	if v.parentMedian != 0 {
		v.change = (v.changeMedian - v.parentMedian) / v.parentMedian
		if s.Better == "higher" {
			v.change = -v.change
		}
	}
	q1, q3 := quantile(pv, 0.25), quantile(pv, 0.75)
	if v.parentMedian != 0 {
		v.spread = (q3 - q1) / v.parentMedian
	}
	for _, pr := range pairs(parent, change) {
		v.pairs++
		if better(pr[1], pr[0]) {
			v.wins++
		}
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
		}
	}
	gap := v.changeMedian - v.parentMedian
	if gap < 0 {
		gap = -gap
	}
	switch {
	case v.pairs >= 10 && 10*v.wins >= 9*v.pairs && gap > q3-q1 && better(v.changeMedian, v.parentMedian):
		v.verdict = "improved"
	case v.spread > s.Bound && allBetter:
		v.verdict = "improved (every run better; spread exceeds bound)"
	case v.spread > s.Bound:
		v.verdict = "unresolved"
	case v.change > s.Bound:
		v.verdict = "worse"
	default:
		v.verdict = "within bound"
	}
	return v
}

// pairs matches parent and change runs of the same seed, each run used
// once.
func pairs(parent, change []sample) [][2]float64 {
	bySeed := map[int64][]float64{}
	for _, c := range change {
		bySeed[c.seed] = append(bySeed[c.seed], c.value)
	}
	var out [][2]float64
	for _, p := range parent {
		if cs := bySeed[p.seed]; len(cs) > 0 {
			out = append(out, [2]float64{p.value, cs[0]})
			bySeed[p.seed] = cs[1:]
		}
	}
	return out
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates between closest ranks, as Python's
// statistics.quantiles does with its default exclusive method for the
// quartiles of ten or more values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	switch {
	case pos <= 0:
		return s[0]
	case pos >= float64(len(s)-1):
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
