package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"patchdb"
)

// buildConfig is the `build` workload's input: the patchdb-build defaults
// (NVD 400, non-security 800, wild pools 8,000/16,000/16,000 searched for
// 3/1/1 rounds, 4 synthetic variants per patch) on GOMAXPROCS workers, with
// no faults and no checkpoint. The smoke size keeps every stage but shrinks
// the corpus about a hundredfold.
func buildConfig(seed int64, tiny bool) patchdb.BuilderConfig {
	cfg := patchdb.BuilderConfig{
		Seed:              seed,
		NVDSize:           400,
		NonSecuritySize:   800,
		WildPools:         []int{8000, 16000, 16000},
		RoundsPerPool:     []int{3, 1, 1},
		SyntheticPerPatch: 4,
		Workers:           runtime.GOMAXPROCS(0),
	}
	if tiny {
		cfg.NVDSize, cfg.NonSecuritySize = 20, 40
		cfg.WildPools, cfg.RoundsPerPool = []int{300, 300}, []int{1, 1}
	}
	return cfg
}

// buildOutcome is one Build+SaveJSON and the facts its output check needs.
type buildOutcome struct {
	start   time.Time
	wall    time.Duration // Build call until SaveJSON returns
	save    time.Duration
	allocMB float64
	saveMB  float64
	startRT runtimeSample
	digest  string // SHA-256 of the saved dataset file
	bytes   int64
	evals   int64
	pruned  int64
	rescans int
	ds      *patchdb.Dataset
	report  *patchdb.BuildReport
}

// counters renders the nearest-link counters that must repeat exactly.
func (o buildOutcome) counters() string {
	return fmt.Sprintf("distance_evals=%d norm_pruned=%d rescans=%d", o.evals, o.pruned, o.rescans)
}

// buildOnce runs one timed build and save. progress, when set, is the
// traced run's stage observer.
func buildOnce(cfg patchdb.BuilderConfig, path string, progress func(patchdb.Stage, int, int)) (buildOutcome, error) {
	var o buildOutcome
	if progress != nil {
		cfg.Progress = progress
	}
	// Each build starts from a collected heap, so it does not pay for
	// garbage the previous one left.
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	o.startRT = before
	ds, rep, err := patchdb.Build(context.Background(), cfg)
	if err != nil {
		return o, fmt.Errorf("build seed %d: %w", cfg.Seed, err)
	}
	saveStart, saveRT := time.Now(), readRuntime()
	if err := ds.SaveJSON(path); err != nil {
		return o, fmt.Errorf("build seed %d: %w", cfg.Seed, err)
	}
	end, endRT := time.Now(), readRuntime()
	o.allocMB, o.saveMB = before.allocMB(endRT), saveRT.allocMB(endRT)
	o.start, o.wall, o.save = start, end.Sub(start), end.Sub(saveStart)
	data, err := os.ReadFile(path)
	if err != nil {
		return o, fmt.Errorf("build seed %d: read back: %w", cfg.Seed, err)
	}
	o.digest, o.bytes = sha(data), int64(len(data))
	o.evals, o.pruned, o.rescans = rep.Search.DistanceEvals, rep.Search.NormPruned, rep.Search.Rescans
	o.ds, o.report = ds, rep
	return o, nil
}

// wellFormed reports whether a build produced every dataset component from
// a clean crawl.
func wellFormed(o buildOutcome) bool {
	s := o.ds.Stats()
	return s.NVD > 0 && s.Wild > 0 && s.NonSecurity > 0 && s.Synthetic > 0 &&
		o.report.Crawl.Quarantined == 0 && !o.report.Degraded
}

// runBuild is the `build` workload. Each run builds several corpora (one
// sub-seed each, derived from the workload seed), so the reported median
// does not hang on one corpus's search luck. It then rebuilds the first
// corpus at one worker, untimed, and requires the same bytes. A traced run
// adds one observed build of the first corpus.
func runBuild(c config, tr *tracer) (*result, error) {
	res := &result{}
	dir, err := os.MkdirTemp(c.dir, "build-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "patchdb.json")

	// Set-up: small builds that let lazily built tables and pools fill
	// before timing.
	var setups []float64
	for i := range setupRepeats {
		o, err := buildOnce(buildConfig(c.seed*1000+900+int64(i), true), path, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(o.wall))
	}

	n := max(2, int(math.Ceil(c.seconds/6)))
	var walls, allocs []float64
	var first buildOutcome
	for i := range n {
		o, err := buildOnce(buildConfig(c.seed*1000+int64(i), c.tiny), path, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		walls = append(walls, seconds(o.wall))
		allocs = append(allocs, o.allocMB)
		res.expect(fmt.Sprintf("build.well_formed[%d]", i), fmt.Sprintf("%+v", o.ds.Stats()), wellFormed(o))
		res.expect(fmt.Sprintf("build.dataset_sha256[%d]", i), o.digest, true)
		res.expect(fmt.Sprintf("build.counters[%d]", i), o.counters(), true)
		if i == 0 {
			// Keep the facts, not the dataset, so later builds start
			// from the same heap.
			first = o
			first.ds, first.report = nil, nil
		}
	}

	serial := buildConfig(c.seed*1000, c.tiny)
	serial.Workers = 1
	o, err := buildOnce(serial, path, nil)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	res.expect("build.workers1_same_digest", o.digest, o.digest == first.digest)
	res.expect("build.workers1_same_counters", o.counters(), o.counters() == first.counters())

	res.e2e("latency_ms", 1000*median(walls), "ms", n)
	res.e2e("setup_s", median(setups), "s", len(setups))
	res.e2e("alloc_mb", median(allocs), "MB", n)
	res.extra("build_s", median(walls), "s", n)

	if tr != nil {
		if err := traceBuild(c, tr, path, first, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// stageProbe observes a build from outside through BuilderConfig.Progress:
// it marks the first and last event of each stage segment and samples the
// runtime counters there.
type stageProbe struct {
	pools []int

	mu        sync.Mutex
	bounds    map[int]bool // extract done-counts that end a segment
	maxDone   int
	inExtract bool
	crawlSeen bool
	crawlLast mark
	synthSeen bool
	total     int // commits extracted
	marks     []mark
}

type mark struct {
	kind string
	at   time.Time
	rt   runtimeSample
	done int
}

func (p *stageProbe) mark(kind string, done int) {
	p.marks = append(p.marks, mark{kind, time.Now(), readRuntime(), done})
}

func (p *stageProbe) progress(stage patchdb.Stage, done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch stage {
	case patchdb.StageCrawl:
		if !p.crawlSeen {
			p.crawlSeen = true
			p.mark("crawl.start", done)
		}
		p.crawlLast = mark{"crawl.end", time.Now(), readRuntime(), done}
	case patchdb.StageExtract:
		if p.bounds == nil {
			// The first event carries the total: the crawled seed, then
			// each wild pool in order.
			p.total = total
			b := total
			for _, n := range p.pools {
				b -= n
			}
			p.bounds = map[int]bool{b: true}
			for _, n := range p.pools {
				b += n
				p.bounds[b] = true
			}
			p.closeCrawl()
		}
		// Callbacks run outside the notifier's lock, so a lower count can
		// arrive after a higher one; it belongs to a segment already seen.
		if done < p.maxDone {
			return
		}
		p.maxDone = done
		if !p.inExtract {
			p.inExtract = true
			p.mark("extract.start", done)
		}
		if p.bounds[done] {
			p.inExtract = false
			p.mark("extract.end", done)
		}
	case patchdb.StageAugment:
		if done > 0 {
			p.mark("augment.end", done)
		}
	case patchdb.StageSynthesize:
		if !p.synthSeen {
			p.synthSeen = true
			p.mark("synthesize.start", done)
		}
		if done == total {
			p.mark("synthesize.end", done)
		}
	}
}

// closeCrawl turns the last crawl event into the crawl's end mark.
func (p *stageProbe) closeCrawl() {
	if p.crawlSeen {
		p.marks = append(p.marks, p.crawlLast)
	}
}

// traceBuild runs one observed build of the first corpus and attributes its
// time and allocations to stages. An untraced build of the same corpus runs
// just before it, so the tracing overhead compares like with like.
func traceBuild(c config, tr *tracer, path string, first buildOutcome, res *result) error {
	cfg := buildConfig(c.seed*1000, c.tiny)
	untraced, err := buildOnce(cfg, path, nil)
	if err != nil {
		return err
	}
	res.Attempted++
	res.expect("build.repeat_same_digest", untraced.digest, untraced.digest == first.digest)
	probe := &stageProbe{pools: cfg.WildPools}
	gcBefore, pauseBefore := readRuntime().gcCycles, gcPauseTotal()
	o, err := buildOnce(cfg, path, probe.progress)
	if err != nil {
		return err
	}
	gcAfter, pauseAfter := readRuntime().gcCycles, gcPauseTotal()
	res.Attempted++
	res.expect("build.traced_same_digest", o.digest, o.digest == first.digest)
	start, end := o.start, o.start.Add(o.wall)

	// Build has returned, so no callback is still running.
	marks := probe.marks
	root := tr.add("build", -1, start, end)
	type stage struct {
		time time.Duration
		mb   float64
	}
	stages := map[string]*stage{}
	add := func(name, spanName string, a, b time.Time, ra, rb runtimeSample) int {
		s := stages[name]
		if s == nil {
			s = &stage{}
			stages[name] = s
		}
		s.time += b.Sub(a)
		s.mb += ra.allocMB(rb)
		return tr.add(spanName, root, a, b)
	}
	prev := mark{kind: "build.start", at: start, rt: o.startRT}
	roundsSeen := 0
	for _, m := range marks {
		switch m.kind {
		case "crawl.start":
			add("generate", "corpus.generate", prev.at, m.at, prev.rt, m.rt)
		case "crawl.end":
			add("crawl", "nvd.crawl", prev.at, m.at, prev.rt, m.rt)
		case "extract.end":
			add("extract", "features.extract", prev.at, m.at, prev.rt, m.rt)
		case "augment.end":
			if prev.kind == "extract.end" {
				id := add("augment", "augment", prev.at, m.at, prev.rt, m.rt)
				var search time.Duration
				for _, r := range o.report.Rounds[roundsSeen:min(m.done, len(o.report.Rounds))] {
					search += r.SearchTime
				}
				tr.place("nearestlink.search", id, search)
			}
			roundsSeen = m.done
		case "synthesize.end":
			add("synthesize", "oversample.synthesize", prev.at, m.at, prev.rt, m.rt)
		}
		prev = m
	}
	stages["save"] = &stage{time: o.save, mb: o.saveMB}
	tr.add("dataset.save", root, end.Add(-o.save), end)
	get := func(name string) *stage {
		if s := stages[name]; s != nil {
			return s
		}
		return &stage{}
	}

	rep := o.report
	search := rep.Search.Duration
	var candidates, verified int
	for _, r := range rep.Rounds {
		candidates += r.Candidates
		verified += r.Verified
	}
	var attributed time.Duration
	for _, s := range stages {
		attributed += s.time
	}
	extract := get("extract").time
	res.layer("corpus.generate_s", seconds(get("generate").time), "s", 1)
	res.layer("nvd.crawl_s", seconds(get("crawl").time), "s", 1)
	res.layer("nvd.downloaded", float64(rep.Crawl.Downloaded), "count", 1)
	res.layer("nvd.retries", float64(rep.Crawl.Retries), "count", 1)
	res.layer("features.extract_s", seconds(extract), "s", 1)
	res.layer("features.commits", float64(probe.total), "count", 1)
	res.layer("features.us_per_commit", float64(extract.Nanoseconds())/1e3/float64(max(1, probe.total)), "us", probe.total)
	res.layer("nearestlink.search_s", seconds(search), "s", rep.Search.Searches)
	res.layer("nearestlink.distance_evals", float64(rep.Search.DistanceEvals), "count", 1)
	res.layer("nearestlink.norm_pruned", float64(rep.Search.NormPruned), "count", 1)
	res.layer("nearestlink.rescans", float64(rep.Search.Rescans), "count", 1)
	res.layer("nearestlink.pruned_fraction", rep.Search.PrunedFraction(), "1", 1)
	res.layer("augment.self_s", seconds(get("augment").time-search), "s", len(rep.Rounds))
	res.layer("augment.candidates", float64(candidates), "count", 1)
	res.layer("augment.verified", float64(verified), "count", 1)
	res.layer("augment.yield", float64(verified)/float64(max(1, candidates)), "1", 1)
	res.layer("oversample.synthesize_s", seconds(get("synthesize").time), "s", 1)
	res.layer("oversample.variants", float64(len(o.ds.Synthetic)), "count", 1)
	res.layer("dataset.save_s", seconds(o.save), "s", 1)
	res.layer("dataset.mb", float64(o.bytes)/1e6, "MB", 1)
	res.layer("build.unattributed_s", seconds(o.wall-attributed), "s", 1)
	res.layer("build.gc_cycles", float64(gcAfter-gcBefore), "count", 1)
	res.layer("build.gc_pause_ms", millis(pauseAfter-pauseBefore), "ms", int(gcAfter-gcBefore))
	for _, name := range []string{"generate", "crawl", "extract", "augment", "synthesize", "save"} {
		res.layer(name+".alloc_mb", get(name).mb, "MB", 1)
	}
	res.extra("build.traced_s", seconds(o.wall), "s", 1)
	res.extra("build.trace_overhead_s", seconds(o.wall-untraced.wall), "s", 1)

	// Cross-check the outside view against the builder's own stage clock.
	for _, st := range rep.Stages {
		var outside time.Duration
		switch st.Stage {
		case patchdb.StageCrawl:
			outside = get("crawl").time
		case patchdb.StageExtract:
			outside = extract
		case patchdb.StageSearch:
			outside = search
		case patchdb.StageAugment:
			outside = get("augment").time
		case patchdb.StageSynthesize:
			outside = get("synthesize").time
		default:
			continue
		}
		res.extra("crosscheck."+string(st.Stage)+".report_s", seconds(st.Duration), "s", 1)
		res.extra("crosscheck."+string(st.Stage)+".outside_s", seconds(outside), "s", 1)
	}
	return nil
}
