// Command perfbench is PatchDB's benchmark. It runs one workload (build,
// tables or serve) from a workload seed, checks the outputs, and prints every
// metric by name with its unit and sample count, stamped with the host. The
// last line of its output is one JSON object: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one (--trace 1).
//
//	go run ./perfbench --workload build --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"patchdb/internal/atomicio"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	// tiny shrinks a workload to its smoke size: every layer runs, in
	// about a second.
	tiny bool
	// dir holds scratch datasets; it must lie inside the checkout.
	dir string
}

type workloadFunc func(config, *tracer) (*result, error)

var workloads = map[string]workloadFunc{
	"build":  runBuild,
	"tables": runTables,
	"serve":  runServe,
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload. A traced run also needs every other
// workload's per-layer metrics, because each result carries the same
// metric set: those layers are measured by running the other workloads'
// traced passes at the smoke size.
func run(name string, c config, traced bool) (*result, []span, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, nil, err
	}
	if !traced {
		res, err := fn(c, nil)
		return res, nil, err
	}
	tr := newTracer(name)
	res, err := fn(c, tr)
	if err != nil {
		return nil, nil, err
	}
	spans := tr.spans
	for _, other := range workloadNames() {
		if other == name {
			continue
		}
		small := c
		small.tiny, small.seconds = true, 1
		otr := newTracer(other)
		ores, err := workloads[other](small, otr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s layers: %w", other, err)
		}
		for _, m := range ores.Layers {
			m.Smoke = true
			res.Layers = append(res.Layers, m)
		}
		res.Attempted += ores.Attempted
		res.Failed += ores.Failed
		for _, ck := range ores.Checks {
			ck.Name = other + "(smoke)." + ck.Name
			res.Checks = append(res.Checks, ck)
		}
		offset := len(spans)
		for _, s := range otr.spans {
			if s.Parent >= 0 {
				s.Parent += offset
			}
			spans = append(spans, s)
		}
	}
	return res, spans, nil
}

// host is the stamp every result carries.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostStamp() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// record is one run as the comparison command reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Host     host    `json:"host"`
	Correct  bool    `json:"correct"`
	Result   *result `json:"result"`
}

// summary is the last line of the output, the machine-readable result.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueUnits `json:"metrics"`
}

type valueUnits struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and then the summary line.
func report(w io.Writer, rec record, tracePath string, spans []span) error {
	h := rec.Host
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%t seconds=%g\n", rec.Workload, rec.Seed, rec.Trace, rec.Seconds)
	fmt.Fprintf(w, "host cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Commit, rec.Seed)
	res := rec.Result
	list := func(kind string, ms []metric) {
		for _, m := range ms {
			k := kind
			if m.Smoke {
				k = "smoke"
			}
			fmt.Fprintf(w, "%-6s %-34s %16s %-6s samples=%d\n", k, m.Name, human(m.Value), m.Unit, m.Samples)
		}
	}
	list("e2e", res.E2E)
	list("extra", res.Extra)
	ratio := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "%-6s %-34s %16s %-6s samples=%d (%d failed)\n", "extra", "fail_ratio", human(ratio), "1", res.Attempted, res.Failed)
	list("layer", res.Layers)
	if tracePath != "" {
		fmt.Fprintf(w, "trace  %s (%d spans)\n", tracePath, len(spans))
		self := selfTimes(spans)
		keys := make([]string, 0, len(self))
		for k := range self {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "self   %-34s %16s s\n", k, human(self[k].Seconds()))
		}
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "check  %-34s %s %s\n", c.Name, verdict, c.Value)
	}
	s := summary{Correct: rec.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnits{}}
	gated := res.E2E
	if rec.Trace {
		gated = res.Layers
	}
	for _, m := range gated {
		s.Metrics[m.Name] = valueUnits{m.Value, m.Unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// human formats a value for reading: whole numbers in full, others to six
// significant digits. The summary line keeps every digit.
func human(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// appendRecord adds rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	old, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(append(old, line...), '\n'))
}

// writeSpans writes a traced run's spans and each span name's self time.
func writeSpans(path string, spans []span) error {
	self := map[string]float64{}
	for key, d := range selfTimes(spans) {
		self[key] = d.Seconds()
	}
	data, err := json.MarshalIndent(struct {
		Spans       []span             `json:"spans"`
		SelfSeconds map[string]float64 `json:"self_seconds"`
	}{spans, self}, "", " ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, data)
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the command and returns its exit status.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fs.Float64("seconds", 20, "how long the workload measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for datasets and trace files")
	out := fs.String("out", "", "append the run's full record as a JSON line to this file (for perfbench/compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	c := config{seed: *seed, seconds: *secs, dir: *dir}
	res, spans, err := run(*name, c, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec := record{Workload: *name, Seed: *seed, Trace: *trace == 1, Seconds: *secs,
		Host: hostStamp(), Correct: res.correct(), Result: res}
	var tracePath string
	if rec.Trace {
		tracePath = filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := writeSpans(tracePath, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := report(stdout, rec, tracePath, spans); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}
