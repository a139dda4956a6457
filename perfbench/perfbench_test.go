package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test holds the benchmark to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at its smoke size, untraced, and then one
// traced run, which runs every workload's traced pass. It requires exactly
// the metrics BENCHMARK.json names, each with its unit, and every output
// check to pass.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	var listed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	type mode struct {
		workload string
		traced   bool
	}
	var modes []mode
	for _, w := range workloadNames() {
		modes = append(modes, mode{w, false})
	}
	modes = append(modes, mode{"build", true})
	for _, m := range modes {
		w, traced := m.workload, m.traced
		c := config{seed: 7, seconds: 1, tiny: true, dir: t.TempDir()}
		res, spans, err := run(w, c, traced)
		if err != nil {
			t.Fatalf("%s traced=%t: %v", w, traced, err)
		}
		for _, ck := range res.Checks {
			if !ck.OK {
				t.Errorf("%s traced=%t: check %s failed: %s", w, traced, ck.Name, ck.Value)
			}
		}
		if !res.correct() || res.Attempted < 1 {
			t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w, traced, res.correct(), res.Attempted, res.Failed)
		}
		want := map[string]string{}
		got := map[string]string{}
		emitted := res.E2E
		if traced {
			emitted = res.Layers
			for _, m := range s.PerLayer {
				want[m.Name] = m.Unit
			}
			if len(spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w)
			}
		} else {
			for _, m := range s.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		for _, m := range emitted {
			if _, dup := got[m.Name]; dup {
				t.Errorf("%s traced=%t: %s emitted twice", w, traced, m.Name)
			}
			got[m.Name] = m.Unit
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s traced=%t: %s = %v", w, traced, m.Name, m.Value)
			}
		}
		if d := diff(want, got); d != "" {
			t.Errorf("%s traced=%t: metrics differ from BENCHMARK.json:\n%s", w, traced, d)
		}
		if traced && w == "build" {
			checkBuildAttribution(t, res)
		}
	}
}

// checkBuildAttribution requires the build's layer times and its
// unattributed remainder to add up to the traced build's wall time.
func checkBuildAttribution(t *testing.T, res *result) {
	t.Helper()
	v := map[string]float64{}
	for _, m := range append(res.Layers, res.Extra...) {
		v[m.Name] = m.Value
	}
	sum := v["corpus.generate_s"] + v["nvd.crawl_s"] + v["features.extract_s"] +
		v["nearestlink.search_s"] + v["augment.self_s"] + v["oversample.synthesize_s"] +
		v["dataset.save_s"] + v["build.unattributed_s"]
	if math.Abs(sum-v["build.traced_s"]) > 1e-6 {
		t.Errorf("build layers add up to %.6fs, traced build took %.6fs", sum, v["build.traced_s"])
	}
	if v["build.unattributed_s"] > 0.2*v["build.traced_s"] {
		t.Errorf("build leaves %.3fs of %.3fs unattributed", v["build.unattributed_s"], v["build.traced_s"])
	}
}

func diff(want, got map[string]string) string {
	var lines []string
	for n, u := range want {
		switch g, ok := got[n]; {
		case !ok:
			lines = append(lines, "missing "+n)
		case g != u:
			lines = append(lines, n+" has unit "+g+", want "+u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			lines = append(lines, "unlisted "+n)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
