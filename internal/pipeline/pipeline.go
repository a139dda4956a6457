// Package pipeline instruments the dataset-construction pipeline: it names
// the stages of a Build, accumulates per-stage wall-clock timings and item
// counters, and defines the progress-callback contract that lets CLIs render
// a live view of a run. Everything here is safe for concurrent use; the
// builder's worker pools report into one shared Metrics.
//
// Since the telemetry layer landed, Metrics is a thin adapter over a
// telemetry.Registry: every Observe lands in the registry's stage counters
// (MetricStageItems, MetricStageDurationNS), so a /metrics scrape and the
// StageStat snapshot read the same backing store.
package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"patchdb/internal/telemetry"
)

// Stage identifies one phase of the construction pipeline.
type Stage string

// The stages of a Build, in execution order.
const (
	// StageCrawl covers the NVD feed fetch and patch downloads.
	StageCrawl Stage = "crawl"
	// StageExtract covers per-commit feature extraction over the wild pools
	// and the crawled seed (the dominant cost at realistic pool sizes).
	StageExtract Stage = "extract"
	// StageSearch covers the nearest-link searches inside augmentation
	// rounds.
	StageSearch Stage = "search"
	// StageAugment covers the augmentation rounds (search + verification).
	StageAugment Stage = "augment"
	// StageSynthesize covers source-level oversampling.
	StageSynthesize Stage = "synthesize"
	// StageCheckpoint covers journal writes at stage boundaries when the
	// build runs with a checkpoint directory.
	StageCheckpoint Stage = "checkpoint"
)

// The registry metric families Metrics writes stage accounting into. The
// stage name rides in a "stage" label. Durations are stored in integral
// nanoseconds so accumulated values survive the float64 counter exactly.
const (
	MetricStageItems      = "patchdb_stage_items_total"
	MetricStageDurationNS = "patchdb_stage_duration_nanoseconds_total"
)

// stageOrder fixes the rendering order of known stages; unknown stages sort
// after them, alphabetically.
var stageOrder = map[Stage]int{
	StageCrawl:      0,
	StageExtract:    1,
	StageSearch:     2,
	StageAugment:    3,
	StageSynthesize: 4,
	StageCheckpoint: 5,
}

// Progress observes pipeline advancement: done items out of total for a
// stage. Callbacks are invoked synchronously from pipeline goroutines, so
// they must be cheap and safe for concurrent use; a Notifier calls its
// callback under a lock, so a callback must not report to the same
// Notifier. A nil Progress is valid everywhere one is accepted.
type Progress func(stage Stage, done, total int)

// Notifier wraps a possibly-nil Progress with a monotonically increasing
// done counter for one stage, so concurrent workers can report completion
// without coordinating indices.
type Notifier struct {
	stage    Stage
	total    int
	progress Progress

	mu   sync.Mutex
	done int
}

// NewNotifier creates a notifier for one stage of total items. p may be nil.
func NewNotifier(stage Stage, total int, p Progress) *Notifier {
	n := &Notifier{stage: stage, total: total, progress: p}
	if p != nil {
		p(stage, 0, total)
	}
	return n
}

// Done records n more completed items and forwards the new count. The
// callback runs under the notifier's lock, so concurrent workers deliver
// their counts in increasing order.
func (n *Notifier) Done(delta int) {
	if n == nil || n.progress == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.done += delta
	n.progress(n.stage, n.done, n.total)
}

// StageStat is one stage's accumulated accounting.
type StageStat struct {
	Stage Stage
	// Duration is total wall-clock time attributed to the stage. Stages
	// timed from a single goroutine report elapsed time; per-item
	// attribution from worker pools would sum CPU-parallel time instead,
	// so the builder times stages around the pool, not inside it.
	Duration time.Duration
	// Items is the number of units processed (commits, patches, rounds...).
	Items int
}

// Metrics accumulates per-stage timings and counters, backed by a
// telemetry.Registry. The zero value is ready to use (it lazily creates a
// private registry); NewMetrics binds to a shared registry so stage
// counters show up on that registry's /metrics endpoint. A nil *Metrics
// ignores all observations.
type Metrics struct {
	mu  sync.Mutex
	reg *telemetry.Registry
}

// NewMetrics creates a Metrics writing into reg (nil reg behaves like the
// zero value: a private registry).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{reg: reg}
}

// Registry returns the backing registry, creating a private one on first
// use of a zero-value Metrics.
func (m *Metrics) Registry() *telemetry.Registry {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg == nil {
		m.reg = telemetry.NewRegistry()
	}
	return m.reg
}

// Observe adds elapsed time and an item count to a stage.
func (m *Metrics) Observe(stage Stage, d time.Duration, items int) {
	if m == nil {
		return
	}
	reg := m.Registry()
	label := telemetry.L("stage", string(stage))
	reg.Counter(MetricStageItems, label).Add(float64(items))
	reg.Counter(MetricStageDurationNS, label).Add(float64(d.Nanoseconds()))
}

// Timer starts timing a stage; the returned stop function records the
// elapsed time along with the given item count. Typical use:
//
//	stop := metrics.Timer(pipeline.StageExtract)
//	... do work ...
//	stop(len(items))
func (m *Metrics) Timer(stage Stage) func(items int) {
	//lint:ignore determinism stage timing is telemetry-only; durations never feed dataset output
	start := time.Now()
	return func(items int) {
		//lint:ignore determinism stage timing is telemetry-only; durations never feed dataset output
		m.Observe(stage, time.Since(start), items)
	}
}

// Snapshot returns the accumulated stats in pipeline order, read back from
// the backing registry's stage counters.
func (m *Metrics) Snapshot() []StageStat {
	if m == nil {
		return nil
	}
	byStage := make(map[Stage]*StageStat)
	for _, p := range m.Registry().Snapshot() {
		if p.Name != MetricStageItems && p.Name != MetricStageDurationNS {
			continue
		}
		var stage Stage
		for _, l := range p.Labels {
			if l.Key == "stage" {
				stage = Stage(l.Value)
			}
		}
		st, ok := byStage[stage]
		if !ok {
			st = &StageStat{Stage: stage}
			byStage[stage] = st
		}
		switch p.Name {
		case MetricStageItems:
			st.Items = int(p.Value)
		case MetricStageDurationNS:
			st.Duration = time.Duration(int64(p.Value))
		}
	}
	out := make([]StageStat, 0, len(byStage))
	for _, st := range byStage {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, iKnown := stageOrder[out[i].Stage]
		oj, jKnown := stageOrder[out[j].Stage]
		switch {
		case iKnown && jKnown:
			return oi < oj
		case iKnown:
			return true
		case jKnown:
			return false
		default:
			return out[i].Stage < out[j].Stage
		}
	})
	return out
}

// String renders the snapshot as an aligned table, one stage per line.
func (m *Metrics) String() string {
	return FormatStats(m.Snapshot())
}

// FormatStats renders stage stats as an aligned table, one stage per line.
// Column widths are computed from the data (with floors matching the
// historical layout), so stage names longer than the default width no
// longer break the alignment.
func FormatStats(stats []StageStat) string {
	if len(stats) == 0 {
		return "(no stage metrics)"
	}
	nameW, itemsW, durW := 12, 8, 10
	type row struct {
		name, items, dur, rate string
	}
	rows := make([]row, 0, len(stats))
	for _, st := range stats {
		r := row{
			name:  string(st.Stage),
			items: fmt.Sprint(st.Items),
			dur:   st.Duration.Round(time.Millisecond).String(),
		}
		if st.Items > 0 && st.Duration > 0 {
			perSec := float64(st.Items) / st.Duration.Seconds()
			r.rate = fmt.Sprintf("  (%.0f items/s)", perSec)
		}
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
		if len(r.items) > itemsW {
			itemsW = len(r.items)
		}
		if len(r.dur) > durW {
			durW = len(r.dur)
		}
		rows = append(rows, r)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %*s items  %*s%s\n", nameW, r.name, itemsW, r.items, durW, r.dur, r.rate)
	}
	return strings.TrimRight(b.String(), "\n")
}
