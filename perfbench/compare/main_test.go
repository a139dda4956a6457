package main

import "testing"

func runs(base float64, jitter ...float64) []sample {
	out := make([]sample, len(jitter))
	for i, j := range jitter {
		out[i] = sample{int64(i), base + j}
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := spec{Name: "latency_ms", Better: "lower", Bound: 0.15}
	steady := []float64{-1, 0.5, 1, -0.5, 0, 0.2, -0.2, 0.8, -0.8, 0.1}
	wide := []float64{-40, 30, 0, 35, -30, 20, -25, 45, -45, 5}
	for _, tc := range []struct {
		name           string
		parent, change []sample
		want           string
	}{
		{"faster", runs(100, steady...), runs(90, steady...), "improved"},
		{"slower beyond bound", runs(100, steady...), runs(120, steady...), "worse"},
		{"slower within bound", runs(100, steady...), runs(105, steady...), "within bound"},
		{"same", runs(100, steady...), runs(100, steady...), "within bound"},
		{"noisy parent", runs(100, wide...), runs(95, wide...), "unresolved"},
	} {
		if got := judge(lower, tc.parent, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := spec{Name: "rps", Better: "higher", Bound: 0.1}
	if got := judge(higher, runs(100, steady...), runs(80, steady...)).verdict; got != "worse" {
		t.Errorf("higher-is-better drop: verdict %q, want worse", got)
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
