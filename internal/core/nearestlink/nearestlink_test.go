package nearestlink

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

var bg = context.Background()

func TestWeights(t *testing.T) {
	a := [][]float64{{2, -8, 0}}
	b := [][]float64{{-4, 1, 0}}
	w, err := Weights(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 0.25 || w[1] != 0.125 {
		t.Errorf("weights = %v", w)
	}
	if w[2] != 1 {
		t.Errorf("constant-dimension weight = %v, want 1", w[2])
	}
}

func TestWeightsDimensionMismatch(t *testing.T) {
	// Ragged rows used to make Weights index past the end of short rows.
	if _, err := Weights([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Weights err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := Weights([][]float64{{1, 2}}, [][]float64{{1, 2, 3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("cross-set Weights err = %v, want ErrDimensionMismatch", err)
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 || m.Stride() != 3 {
		t.Fatalf("shape = %dx%d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	if got := m.Row(1); got[0] != 4 || got[2] != 6 {
		t.Errorf("row 1 = %v", got)
	}
	// Row views alias the flat backing array.
	m.Row(0)[1] = 99
	if m.Data()[1] != 99 {
		t.Error("Row view does not alias Data")
	}
	views := m.RowSlices()
	if len(views) != 2 || views[0][1] != 99 {
		t.Errorf("RowSlices = %v", views)
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged err = %v, want ErrDimensionMismatch", err)
	}
}

func TestSearchHandPicked(t *testing.T) {
	// Two security patches; wild pool where the greedy assignment is
	// unambiguous.
	sec := [][]float64{{0}, {10}}
	wild := [][]float64{{9}, {1}, {50}}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d", len(links))
	}
	got := map[int]int{}
	for _, l := range links {
		got[l.Security] = l.Wild
	}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("assignment = %v, want 0->1, 1->0", got)
	}
}

func TestSearchCollisionResolution(t *testing.T) {
	// Both security patches are nearest to wild[0]; one must fall back to
	// its second choice, and the pair with the smaller distance wins the
	// contested column (greedy global-min order).
	sec := [][]float64{{0}, {0.5}}
	wild := [][]float64{{0.1}, {3}}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, l := range links {
		got[l.Security] = l.Wild
	}
	// sec[0] is 0.1 from wild[0]; sec[1] is 0.4 from wild[0]. sec[0] wins.
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("assignment = %v, want 0->0, 1->1", got)
	}
}

func TestSearchMatrix(t *testing.T) {
	sec, err := MatrixFromRows([][]float64{{0}, {0.5}})
	if err != nil {
		t.Fatal(err)
	}
	wild, err := MatrixFromRows([][]float64{{0.1}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	secBefore := append([]float64(nil), sec.Data()...)
	links, err := SearchMatrix(bg, sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d", len(links))
	}
	// Normalization must not mutate the caller's matrices.
	for i, v := range sec.Data() {
		if v != secBefore[i] {
			t.Fatalf("SearchMatrix mutated input at %d: %v != %v", i, v, secBefore[i])
		}
	}
	// Column-count mismatch across matrices.
	bad, err := MatrixFromRows([][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SearchMatrix(bg, sec, bad, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("mismatched matrices err = %v", err)
	}
}

func TestSearchUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sec := randRows(rng, 40, 5)
	wild := randRows(rng, 200, 5)
	links, err := Search(bg, sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 40 {
		t.Fatalf("links = %d", len(links))
	}
	usedWild := map[int]bool{}
	usedSec := map[int]bool{}
	for _, l := range links {
		if usedWild[l.Wild] {
			t.Fatalf("wild %d linked twice", l.Wild)
		}
		if usedSec[l.Security] {
			t.Fatalf("security %d linked twice", l.Security)
		}
		usedWild[l.Wild] = true
		usedSec[l.Security] = true
		if l.Distance < 0 || math.IsNaN(l.Distance) {
			t.Fatalf("bad distance %v", l.Distance)
		}
	}
}

func TestSearchMoreSecurityThanWild(t *testing.T) {
	sec := [][]float64{{0}, {1}, {2}, {3}}
	wild := [][]float64{{0}, {1}}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d, want min(M,N)=2", len(links))
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(bg, nil, [][]float64{{1}}, nil); !errors.Is(err, ErrNoSecurityPatches) {
		t.Errorf("err = %v", err)
	}
	if _, err := Search(bg, [][]float64{{1}}, nil, nil); !errors.Is(err, ErrNoWildPatches) {
		t.Errorf("err = %v", err)
	}
}

func TestSearchDimensionMismatch(t *testing.T) {
	// A short wild row used to panic inside Weights/dist2; it must now
	// surface as a descriptive error.
	sec := [][]float64{{1, 2}, {3, 4}}
	wild := [][]float64{{1, 2}, {3}}
	if _, err := Search(bg, sec, wild, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Search err = %v, want ErrDimensionMismatch", err)
	} else if !strings.Contains(err.Error(), "wild row 1") {
		t.Errorf("error lacks row detail: %v", err)
	}
	// Mismatch inside the security set itself.
	if _, err := Search(bg, [][]float64{{1, 2}, {3, 4, 5}}, [][]float64{{1, 2}}, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("security mismatch err = %v", err)
	}
	if _, err := KNNSelect(bg, sec, wild, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("KNNSelect err = %v, want ErrDimensionMismatch", err)
	}
	// Matching dims still succeed with normalization disabled too.
	if _, err := Search(bg, sec, [][]float64{{5, 6}}, &Options{DisableNormalization: true}); err != nil {
		t.Errorf("valid dims err = %v", err)
	}
}

func TestSearchCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sec := randRows(rng, 500, 60)
	wild := randRows(rng, 50000, 60)

	// A pre-canceled context aborts before any scanning.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, sec, wild, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Search err = %v, want context.Canceled", err)
	}
	if _, err := KNNSelect(ctx, sec, wild, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled KNNSelect err = %v, want context.Canceled", err)
	}

	// Cancellation mid-search aborts promptly: the scan phase checks ctx
	// between row chunks, so the 500×50k search (well over a millisecond
	// of work) must return the wrapped error long before completing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err := Search(ctx2, sec, wild, &Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight Search err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error not descriptive: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

func TestSearchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sec := randRows(rng, 20, 4)
	wild := randRows(rng, 80, 4)
	var st Stats
	links, err := Search(bg, sec, wild, &Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.SecurityRows != 20 || st.WildCols != 80 {
		t.Errorf("stats dims = %+v", st)
	}
	if st.Duration <= 0 {
		t.Errorf("duration = %v", st.Duration)
	}
	if st.Rescans < 0 {
		t.Errorf("rescans = %d", st.Rescans)
	}
	if st.HeapPops < 20 {
		t.Errorf("heap pops = %d, want >= one per assigned row", st.HeapPops)
	}
	if st.DistanceEvals <= 0 {
		t.Errorf("distance evals = %d", st.DistanceEvals)
	}
	if st.PrunedFraction < 0 || st.PrunedFraction > 1 {
		t.Errorf("pruned fraction = %v", st.PrunedFraction)
	}
	if len(links) != 20 {
		t.Errorf("links = %d", len(links))
	}

	var kst Stats
	if _, err := KNNSelect(bg, sec, wild, &Options{Stats: &kst}); err != nil {
		t.Fatal(err)
	}
	if kst.SecurityRows != 20 || kst.WildCols != 80 || kst.Duration <= 0 {
		t.Errorf("knn stats = %+v", kst)
	}

	var tot Totals
	tot.Add(st)
	tot.Add(kst)
	if tot.Searches != 2 || tot.DistanceEvals != st.DistanceEvals+kst.DistanceEvals {
		t.Errorf("totals = %+v", tot)
	}
	if s := tot.String(); !strings.Contains(s, "searches=2") {
		t.Errorf("totals string = %q", s)
	}
}

func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sec := randRows(rng, 30, 8)
	wild := randRows(rng, 120, 8)
	l1, err := Search(bg, sec, wild, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l8, err := Search(bg, sec, wild, &Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != len(l8) {
		t.Fatalf("lengths differ: %d vs %d", len(l1), len(l8))
	}
	m1 := map[int]int{}
	for _, l := range l1 {
		m1[l.Security] = l.Wild
	}
	for _, l := range l8 {
		if m1[l.Security] != l.Wild {
			t.Fatalf("worker count changed assignment for security %d", l.Security)
		}
	}
}

// TestStatsDeterministicAcrossWorkers pins the deterministic-counter
// contract of the blocked scan: at a fixed (blockRows, shardCols) the task
// grid, every task's visit order, and every pruning bound are independent of
// the worker count, so the full Stats accounting — not just the links — must
// be bit-identical at workers 1, 2, and 8. Duration is wall-clock telemetry
// and is excluded.
func TestStatsDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sec := randRows(rng, 45, 12)
	wild := randRows(rng, 700, 12)
	// blockRows 8 and shardCols 128 give a 6x6 task grid at this shape, so
	// the counters really do merge across many concurrently scanned cells.
	var want Stats
	var wantLinks []Link
	for wi, workers := range []int{1, 2, 8} {
		var st Stats
		o := Options{Workers: workers, Stats: &st, blockRows: 8, shardCols: 128}
		links, err := Search(bg, sec, wild, &o)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		st.Duration = 0
		if wi == 0 {
			want, wantLinks = st, links
			continue
		}
		if st != want {
			t.Errorf("w=%d: stats diverge:\n got %+v\nwant %+v", workers, st, want)
		}
		if len(links) != len(wantLinks) {
			t.Fatalf("w=%d: %d links, want %d", workers, len(links), len(wantLinks))
		}
		for k := range links {
			if links[k] != wantLinks[k] {
				t.Fatalf("w=%d: link %d = %+v, want %+v", workers, k, links[k], wantLinks[k])
			}
		}
	}
}

// TestLinksInvariantAcrossBlockAndShard pins the other half of the contract:
// blockRows and shardCols move pruning decisions between stages (the
// counters may change) but may never change the links. Every combination —
// including degenerate single-row blocks and shards smaller than one sweep
// tile — must reproduce the reference assignment bit-for-bit.
func TestLinksInvariantAcrossBlockAndShard(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sec := genGrid(rng, 35, 9) // tie-heavy: the regime where a merge bug shows
	wild := genGrid(rng, 900, 9)
	want, err := ReferenceSearch(sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockRows := range []int{1, 3, 16, 64} {
		for _, shardCols := range []int{32, 100, 1000} {
			got, err := Search(bg, sec, wild,
				&Options{Workers: 4, blockRows: blockRows, shardCols: shardCols})
			if err != nil {
				t.Fatalf("block=%d shard=%d: %v", blockRows, shardCols, err)
			}
			assertLinksIdentical(t, fmt.Sprintf("block=%d/shard=%d", blockRows, shardCols), 4, want, got)
		}
	}
}

func TestNormalizationMatters(t *testing.T) {
	// Dimension 1 has a huge scale (set by wild[2]); unnormalized, wild[0]'s
	// small dim-1 offset (10) dominates its zero dim-0 distance and wild[1]
	// wins. Normalized, dim-1 shrinks by 1/1000 and wild[0] wins.
	sec := [][]float64{{1, 0}}
	wild := [][]float64{{1, 10}, {2, 0}, {0, 1000}}
	raw, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Search(bg, sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0].Wild != 1 {
		t.Errorf("unnormalized picked %d, want 1 (raw dim-1 dominates)", raw[0].Wild)
	}
	if norm[0].Wild != 0 {
		t.Errorf("normalized picked %d, want 0 (dim-1 rescaled away)", norm[0].Wild)
	}
}

func TestKNNSelectAllowsFewer(t *testing.T) {
	// Two security patches share the same nearest wild patch; KNN dedups to
	// one candidate while nearest link yields two.
	sec := [][]float64{{0}, {0.1}}
	wild := [][]float64{{0.05}, {9}}
	knn, err := KNNSelect(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(knn) != 1 || knn[0] != 0 {
		t.Errorf("knn = %v, want [0]", knn)
	}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Errorf("nearest link = %d links, want 2 (one-to-one)", len(links))
	}
}

// TestGreedyClosestPairAlwaysLinked asserts the structural invariant greedy
// guarantees: the globally closest pair is always linked first.
func TestGreedyClosestPairAlwaysLinked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		sec := randRows(rng, 4, 3)
		wild := randRows(rng, 10, 3)
		links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
		if err != nil {
			t.Fatal(err)
		}
		// Find the global minimum pair by brute force.
		bestD := math.Inf(1)
		bestM, bestN := -1, -1
		for m := range sec {
			for n := range wild {
				if d := dist2(sec[m], wild[n]); d < bestD {
					bestD = d
					bestM, bestN = m, n
				}
			}
		}
		found := false
		for _, l := range links {
			if l.Security == bestM && l.Wild == bestN {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: global closest pair (%d,%d) not linked: %v", trial, bestM, bestN, links)
		}
	}
}

// screened runs one candidate through the scan's per-dimension screens in
// engine order — prefixScreen over the first screenPrefix dimensions, with
// the shaded tail norm gap as its lower-bound add, then screenTailDist2
// over the rest — and reports whether it survives against bound.
func screened(a, b []float64, bound float64) bool {
	pw := min(screenPrefix, len(a))
	g := math.Sqrt(dot(a[pw:], a[pw:])) - math.Sqrt(dot(b[pw:], b[pw:]))
	pd, ok := prefixScreen(a[:pw], b[:pw], g*g*normBoundShade, bound*screenSlack)
	return ok && screenTailDist2(a[pw:], b[pw:], pd, bound)
}

// TestKernelEquivalence pins the exactness contract of the fast kernels:
// screening may never reject a candidate the reference-order dist2 would
// accept (its rejection must be conservative under the reordering error of
// float64 summation), and the shaded norm bound must never exceed the true
// squared distance.
func TestKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(100)
		a, b := make([]float64, d), make([]float64, d)
		for j := range a {
			a[j] = rng.NormFloat64() * 10
			b[j] = rng.NormFloat64() * 10
		}
		want := dist2(a, b)
		pw := min(screenPrefix, d)
		if p, q := prefixDist2(a[:pw], b[:pw]), dist2(a[:pw], b[:pw]); math.Abs(p-q)/math.Max(q, 1) > 1e-13 {
			t.Fatalf("trial %d: prefix sum %v vs dist2 %v", trial, p, q)
		}
		// No false rejection: any bound the reference-order value meets must
		// survive screening, including a tie.
		for _, bound := range []float64{inf, want, want * 1.000001, want + 1, want * 4} {
			if !screened(a, b, bound) {
				t.Fatalf("trial %d: screen rejected dist %v against bound %v", trial, want, bound)
			}
		}
		// True rejection against a bound clearly below the distance.
		if want > 0 && screened(a, b, want/2) {
			t.Fatalf("trial %d: bound %v not honored", trial, want/2)
		}
		// An exact duplicate survives a zero bound: it may win a tie by index.
		if !screened(a, a, 0) {
			t.Fatalf("trial %d: exact duplicate rejected against bound 0", trial)
		}
		na, nb := math.Sqrt(dot(a, a)), math.Sqrt(dot(b, b))
		diff := na - nb
		if lb := diff * diff * normBoundShade; lb > want {
			t.Fatalf("trial %d: norm bound %v exceeds true distance %v", trial, lb, want)
		}
	}
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}
