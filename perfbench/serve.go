package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"patchdb"
	"patchdb/internal/experiments"
	"patchdb/internal/experiments/servebench"
	"patchdb/internal/store"
	"patchdb/internal/telemetry"
)

// The serve workload's load shape: open loop from at most two connections
// (independent consumers, each waiting on its own reply), a reference rate
// for the latency figures, a fixed ladder for the capacity figure, and the
// latency limit the ladder is judged against.
const (
	serveConns    = 2
	referenceRate = 1500
	ladderLow     = 1000
	ladderHigh    = 8000
	ladderStep    = 1000
	latencyLimit  = 10 * time.Millisecond
	reloadCount   = 5
)

// serveScale is the dataset the store loads: servebench.ServeDataset at the
// default scale, drawn from the workload seed.
func serveScale(tiny bool, seed int64) experiments.Scale {
	s := experiments.DefaultScale
	s.Seed = seed
	if tiny {
		s.NVDSeed, s.NonSecSeed, s.SetI = 40, 80, 400
	}
	return s
}

// request is one GET of the mix and the status the loaded snapshot
// predicts for it.
type request struct {
	path string
	want int
}

// requestMix draws n requests in the SERVE proportions: 60% point hits,
// 10% misses, 10% CVE lookups, 15% scans (two thirds filtered, one third
// deep cursor pages) and 5% stats and distribution calls. Each expected
// status comes from the snapshot, not from the server.
func requestMix(rng *rand.Rand, sn *store.Snapshot, ids, cves []string, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		var path string
		want := http.StatusOK
		switch p := rng.Float64(); {
		case p < 0.60:
			id := ids[rng.Intn(len(ids))]
			path = "/v1/patch/" + id
			if _, ok := sn.Get(id); !ok {
				want = http.StatusNotFound
			}
		case p < 0.70:
			id := fmt.Sprintf("unknown-%d", rng.Intn(1<<30))
			path = "/v1/patch/" + id
			if _, ok := sn.Get(id); !ok {
				want = http.StatusNotFound
			}
		case p < 0.80:
			cve := cves[rng.Intn(len(cves))]
			path = "/v1/cve/" + cve
			if len(sn.CVE(cve)) == 0 {
				want = http.StatusNotFound
			}
		case p < 0.90:
			src := []string{"nvd", "wild"}[rng.Intn(2)]
			path = fmt.Sprintf("/v1/patches?source=%s&security=true&limit=%d", src, 10+rng.Intn(40))
		case p < 0.95:
			path = "/v1/patches?cursor=" + ids[rng.Intn(len(ids))] + "&limit=50"
		case p < 0.98:
			path = "/v1/stats"
		default:
			path = "/v1/distribution"
		}
		reqs[i] = request{path, want}
	}
	return reqs
}

// server is one set-up of the serving stack: store, handler and listener.
type server struct {
	st   *store.Store
	h    http.Handler
	srv  *store.Server
	load time.Duration
}

// startServer loads the dataset file into a fresh store behind the
// production handler and a loopback listener.
func startServer(path string) (*server, error) {
	hub := telemetry.NewHub()
	// Ring buffer only, as in servebench: slow-request records stay
	// readable on /debug/logs without writing to the benchmark's output.
	hub.SetLogger(nil)
	s := &server{st: store.New(0, hub)}
	start := time.Now()
	if _, err := s.st.LoadFile(path); err != nil {
		return nil, err
	}
	s.load = time.Since(start)
	s.h = store.NewHandler(s.st, hub, func() (*store.Snapshot, error) { return s.st.LoadFile(path) })
	srv, err := store.Serve("127.0.0.1:0", s.h)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// loadStats summarises one open-loop phase.
type loadStats struct {
	sent       int
	failed     int
	lat        []float64 // ms from each request's due time to its full response
	late       []float64 // ms the generator dispatched each request after its due time
	backlogMax int
	growing    bool     // the queue held more than the latency limit's worth at the last dispatch
	bodies     []string // SHA-256 of each 200 body, in request order, when checked
}

// openLoop sends reqs[i%len(reqs)] at rate per second for d over at most
// serveConns connections. Requests are due on a fixed schedule whatever the
// server does; on each wake-up the generator dispatches every request that
// is due, so a stall shows as latency, not as a thinner schedule. When
// expect is non-nil, each 200 body must hash to expect[path].
func openLoop(client *http.Client, base string, reqs []request, rate float64, d time.Duration, expect map[string]string) loadStats {
	n := max(1, int(rate*d.Seconds()))
	type job struct {
		i   int
		due time.Time
	}
	st := loadStats{sent: n, lat: make([]float64, n), late: make([]float64, 0, n)}
	if expect != nil {
		st.bodies = make([]string, n)
	}
	queue := make(chan job, n) // sized to the number of sends: the generator never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				r := reqs[j.i%len(reqs)]
				check := expect != nil && r.want == http.StatusOK
				ok, sum := fetch(client, base+r.path, r.want, check)
				st.lat[j.i] = millis(time.Since(j.due))
				if ok && check {
					st.bodies[j.i] = sum
					ok = sum == expect[r.path]
				}
				if !ok {
					mu.Lock()
					st.failed++
					mu.Unlock()
				}
			}
		}()
	}
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	for next := 0; next < n; {
		now := time.Now()
		for ; next < n; next++ {
			due := start.Add(time.Duration(float64(next) * interval))
			if due.After(now) {
				break
			}
			queue <- job{next, due}
			st.late = append(st.late, millis(now.Sub(due)))
		}
		st.backlogMax = max(st.backlogMax, len(queue))
		if next < n {
			time.Sleep(time.Until(start.Add(time.Duration(float64(next) * interval))))
		} else {
			st.growing = float64(len(queue)) > rate*latencyLimit.Seconds()
		}
	}
	close(queue)
	wg.Wait()
	return st
}

// fetch GETs url and reports whether the status was want; with hash set it
// also returns the body's SHA-256.
func fetch(client *http.Client, url string, want int, hash bool) (bool, string) {
	resp, err := client.Get(url)
	if err != nil {
		return false, ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		return false, ""
	}
	if !hash {
		return true, ""
	}
	return true, sha(body)
}

// runServe is the `serve` workload: set the stack up, drive the reference
// rate and the ladder over loopback, then reload the same file a few times
// with no read traffic. A traced run adds in-process measurements of the
// store, the handler stack, the encoder and the loopback floor.
func runServe(c config, tr *tracer) (*result, error) {
	res := &result{}
	dir, err := os.MkdirTemp(c.dir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "patchdb.json")
	ds := servebench.ServeDataset(serveScale(c.tiny, c.seed))
	if err := ds.SaveJSON(path); err != nil {
		return nil, err
	}

	var s *server
	var setups, loads []float64
	for i := range setupRepeats {
		runtime.GC()
		start := time.Now()
		next, err := startServer(path)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
		loads = append(loads, seconds(next.load))
		if i < setupRepeats-1 {
			if err := next.srv.Close(); err != nil {
				return nil, err
			}
			continue
		}
		s = next
	}
	defer s.srv.Close()
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	sn := s.st.Snapshot()
	var ids, cves []string
	for _, comp := range [][]patchdb.Record{ds.NVD, ds.Wild, ds.NonSecurity, ds.Synthetic} {
		for _, r := range comp {
			ids = append(ids, r.ID)
			if r.CVE != "" {
				cves = append(cves, r.CVE)
			}
		}
	}
	if len(ids) == 0 || len(cves) == 0 {
		return nil, fmt.Errorf("serve: dataset has %d records and %d CVEs", len(ids), len(cves))
	}

	// Phase lengths follow the run length: nearly half at the reference
	// rate, and each ladder step a twentieth.
	ref := time.Duration(0.45 * c.seconds * float64(time.Second))
	step := time.Duration(0.05 * c.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(c.seed))
	refReqs := requestMix(rng, sn, ids, cves, max(1, int(referenceRate*ref.Seconds())))
	expect, err := expectedBodies(s.h, refReqs)
	if err != nil {
		return nil, err
	}
	// Warm the connections and the handler's lazily created series.
	for _, r := range refReqs[:min(200, len(refReqs))] {
		fetch(client, s.srv.URL+r.path, r.want, false)
	}

	runtime.GC()
	before := readRuntime()
	refStats := openLoop(client, s.srv.URL, refReqs, referenceRate, ref, expect)
	after := readRuntime()
	res.Attempted += refStats.sent
	res.Failed += refStats.failed
	var digest []byte
	for _, b := range refStats.bodies {
		digest = append(digest, b...)
	}
	res.Checks = append(res.Checks,
		check{"serve.status_and_body", fmt.Sprintf("%d/%d mismatched", refStats.failed, refStats.sent), refStats.failed == 0},
		check{"serve.body_sha256", sha(digest), true})

	ladderReqs := requestMix(rng, sn, ids, cves, 4096)
	maxRPS := 0
	for rate := ladderLow; rate <= ladderHigh; rate += ladderStep {
		st := openLoop(client, s.srv.URL, ladderReqs, float64(rate), step, nil)
		res.Attempted += st.sent
		res.Failed += st.failed
		p99 := quantile(st.lat, 0.99)
		res.extra(fmt.Sprintf("ladder.%d.p99_ms", rate), p99, "ms", st.sent)
		if st.failed > 0 || st.growing || p99 > millis(latencyLimit) {
			break
		}
		maxRPS = rate
	}

	var reloads []float64
	version := sn.Version
	versionsOK := true
	for range reloadCount {
		start := time.Now()
		v, err := reload(client, s.srv.URL)
		reloads = append(reloads, millis(time.Since(start)))
		res.Attempted++
		if err != nil || v != version+1 {
			res.Failed++
			versionsOK = false
		}
		version = v
	}
	res.Checks = append(res.Checks, check{"serve.reload_versions", fmt.Sprintf("%d..%d", sn.Version+1, version), versionsOK})

	res.e2e("latency_ms", quantile(refStats.lat, 0.5), "ms", refStats.sent)
	res.e2e("setup_s", median(setups), "s", len(setups))
	res.e2e("alloc_mb", before.allocMB(after), "MB", refStats.sent)
	res.extra("serve_p50_ms", quantile(refStats.lat, 0.5), "ms", refStats.sent)
	res.extra("serve_p99_ms", quantile(refStats.lat, 0.99), "ms", refStats.sent)
	res.extra("loadgen.late_p99_ms", quantile(refStats.late, 0.99), "ms", refStats.sent)
	res.extra("serve_max_rps", float64(maxRPS), "req/s", 1)
	res.extra("reload_ms", median(reloads), "ms", len(reloads))
	if tr == nil {
		return res, nil
	}

	res.layer("serve_p99_ms", quantile(refStats.lat, 0.99), "ms", refStats.sent)
	res.layer("serve_max_rps", float64(maxRPS), "req/s", 1)
	res.layer("reload_ms", median(reloads), "ms", len(reloads))
	res.layer("loadgen.late_p99_ms", quantile(refStats.late, 0.99), "ms", refStats.sent)
	res.layer("serve.backlog_max", float64(refStats.backlogMax), "count", 1)
	res.layer("serve.gc_cycles", float64(after.gcCycles-before.gcCycles), "count", 1)
	res.layer("store.load_s", median(loads), "s", len(loads))
	return res, probeServe(s, client, ids, cves, c.tiny, tr, res)
}

// expectedBodies computes, in process and before timing, the body each
// 200 request of the phase must return over the wire. A point hit must
// also carry the record it asked for.
func expectedBodies(h http.Handler, reqs []request) (map[string]string, error) {
	out := make(map[string]string)
	w := newDiscard()
	for _, r := range reqs {
		if _, ok := out[r.path]; ok || r.want != http.StatusOK {
			continue
		}
		req, err := http.NewRequest(http.MethodGet, r.path, nil)
		if err != nil {
			return nil, err
		}
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return nil, fmt.Errorf("serve: in-process %s answered %d", r.path, w.code)
		}
		if id, ok := strings.CutPrefix(r.path, "/v1/patch/"); ok {
			var rec patchdb.Record
			if err := json.Unmarshal(w.body, &rec); err != nil || rec.ID != id {
				return nil, fmt.Errorf("serve: %s returned record %q", r.path, rec.ID)
			}
		}
		out[r.path] = sha(w.body)
	}
	return out, nil
}

// reload POSTs /reload and returns the snapshot version it reports.
func reload(client *http.Client, base string) (uint64, error) {
	resp, err := client.Post(base+"/reload", "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return body.Version, fmt.Errorf("reload answered %d", resp.StatusCode)
	}
	return body.Version, nil
}

// discard is a reusable in-process ResponseWriter that keeps the last
// status and body.
type discard struct {
	hdr  http.Header
	code int
	body []byte
}

func newDiscard() *discard { return &discard{hdr: http.Header{}} }

func (d *discard) reset() {
	clear(d.hdr)
	d.code, d.body = http.StatusOK, d.body[:0]
}

func (d *discard) Header() http.Header { return d.hdr }

func (d *discard) WriteHeader(code int) { d.code = code }

func (d *discard) Write(b []byte) (int, error) {
	d.body = append(d.body, b...)
	return len(b), nil
}

// probeServe measures the serving layers in process, outside the HTTP
// load: snapshot lookups, the full handler stack per endpoint, the JSON
// encoding of one record, and the loopback round trip the handler cannot
// shorten.
func probeServe(s *server, client *http.Client, ids, cves []string, tiny bool, tr *tracer, res *result) error {
	root := tr.add("serve.layers", -1, time.Now(), time.Now())
	// n scales a probe's call count down to the smoke size.
	n := func(full int) int {
		if tiny {
			return max(1, full/20)
		}
		return full
	}
	sn := s.st.Snapshot()
	yes := true
	span := func(name string, fn func()) {
		start := time.Now()
		fn()
		tr.add(name, root, start, time.Now())
	}
	var ns float64
	span("store.get", func() { ns, _ = perOp(5, n(50000), func(i int) { sn.Get(ids[i%len(ids)]) }) })
	res.layer("store.get_ns", ns, "ns", 5)
	span("store.cve", func() { ns, _ = perOp(5, n(20000), func(i int) { sn.CVE(cves[i%len(cves)]) }) })
	res.layer("store.cve_ns", ns, "ns", 5)
	span("store.list", func() {
		ns, _ = perOp(5, n(500), func(i int) {
			sn.List(store.Query{Source: "nvd", Security: &yes, Limit: 25, Cursor: ids[i%len(ids)]})
		})
	})
	res.layer("store.list_ns", ns, "ns", 5)

	endpoints := []struct {
		name  string
		paths func(i int) string
		n     int
	}{
		{"patch", func(i int) string { return "/v1/patch/" + ids[i%len(ids)] }, n(5000)},
		{"cve", func(i int) string { return "/v1/cve/" + cves[i%len(cves)] }, n(2000)},
		{"patches", func(i int) string { return "/v1/patches?source=nvd&security=true&limit=25" }, n(500)},
		{"stats", func(int) string { return "/v1/stats" }, n(5000)},
	}
	handlerUS := map[string]float64{}
	for _, ep := range endpoints {
		reqs := make([]*http.Request, min(ep.n, 1024))
		for i := range reqs {
			req, err := http.NewRequest(http.MethodGet, ep.paths(i), nil)
			if err != nil {
				return err
			}
			reqs[i] = req
		}
		w := newDiscard()
		var allocs float64
		span("http."+ep.name, func() {
			ns, allocs = perOp(5, ep.n, func(i int) {
				w.reset()
				s.h.ServeHTTP(w, reqs[i%len(reqs)])
			})
		})
		handlerUS[ep.name] = ns / 1000
		res.layer("http."+ep.name+".handler_us", ns/1000, "us", 5)
		res.layer("http."+ep.name+".allocs", allocs, "count", 5)
	}

	rec, _ := sn.Get(ids[0])
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", " ")
	span("json.record_encode", func() { ns, _ = perOp(5, n(5000), func(int) { _ = enc.Encode(rec) }) })
	res.layer("json.record_encode_us", ns/1000, "us", 5)

	// Closed loop, one request at a time, so the round trip holds no queueing.
	var rtts []float64
	span("net.loopback", func() {
		for i := range n(1000) {
			start := time.Now()
			fetch(client, s.srv.URL+"/v1/patch/"+ids[i%len(ids)], http.StatusOK, false)
			rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1000)
		}
	})
	res.layer("net.loopback_us", median(rtts)-handlerUS["patch"], "us", len(rtts))
	tr.finish(root, time.Now())
	return nil
}
