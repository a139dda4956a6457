package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 5

// metric is one named measurement with its unit and the number of samples
// its value summarises.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Smoke marks a layer of another workload, measured at the smoke size
	// to complete a traced run's metric set; it is not comparable.
	Smoke bool `json:"smoke,omitempty"`
}

// check is one output check: the value it compared (a digest or a count)
// and whether it held.
type check struct {
	Name  string `json:"name"`
	Value string `json:"value"`
	OK    bool   `json:"ok"`
}

// result is what one workload run reports: the end-to-end metrics, the
// per-layer ones (traced runs only), and extra figures that only one
// workload has, which are printed but not gated.
type result struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	E2E       []metric `json:"end_to_end"`
	Layers    []metric `json:"per_layer,omitempty"`
	Extra     []metric `json:"extra"`
	Checks    []check  `json:"checks"`
}

func (r *result) e2e(name string, v float64, unit string, n int) {
	r.E2E = append(r.E2E, metric{Name: name, Value: v, Unit: unit, Samples: n})
}

func (r *result) layer(name string, v float64, unit string, n int) {
	r.Layers = append(r.Layers, metric{Name: name, Value: v, Unit: unit, Samples: n})
}

func (r *result) extra(name string, v float64, unit string, n int) {
	r.Extra = append(r.Extra, metric{Name: name, Value: v, Unit: unit, Samples: n})
}

// expect records a check and counts a failed one against the run.
func (r *result) expect(name, value string, ok bool) {
	r.Checks = append(r.Checks, check{name, value, ok})
	if !ok {
		r.Failed++
	}
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runtimeSample is a point-in-time read of the runtime counters the
// benchmark attributes to layers.
type runtimeSample struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64
	totalCPU     float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the runtime counters. It does not stop the world.
func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{u(0), u(1), u(2), f(3), f(4)}
}

func (a runtimeSample) allocMB(b runtimeSample) float64 {
	return float64(b.allocBytes-a.allocBytes) / 1e6
}

// gcPauseTotal is the stop-the-world pause time the collector has caused so
// far. ReadMemStats stops the world itself, so it is read only at the ends
// of a timed interval.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// span is one traced interval. Parent is the index of the enclosing span
// in the tracer's list, or -1 for a root. Placed spans have a known
// duration but no observed start; they are laid at the start of their
// parent so self times add up.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Placed   bool   `json:"placed,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced runs use it.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// add records an interval under parent and returns its index.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Parent: parent,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// finish sets the end of a span recorded before its end was known.
func (t *tracer) finish(idx int, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].EndNS = end.Sub(t.origin).Nanoseconds()
}

// place records a child of parent whose duration is known but whose start
// was not observed.
func (t *tracer) place(name string, parent int, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Parent: parent, Placed: true,
		StartNS: p.StartNS, EndNS: p.StartNS + d.Nanoseconds(),
	})
}

// selfTimes sums, per workload/span name, each span's duration minus the
// part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNS < cs[b].StartNS })
		var covered int64
		reach := s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Workload+"/"+s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// perOp times fn over n calls, reps times, and returns the median
// nanoseconds per call and the heap objects allocated per call.
func perOp(reps, n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	ns := make([]float64, reps)
	allocs := make([]float64, reps)
	for r := range reps {
		before := readRuntime()
		start := time.Now()
		for i := range n {
			fn(i)
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
		allocs[r] = float64(readRuntime().allocObjects-before.allocObjects) / float64(n)
	}
	return median(ns), median(allocs)
}
