package nearestlink

import (
	"math"
	"sort"
)

// Distance kernels. Two precision regimes coexist here, and the split is
// what keeps the fast engine's output bit-identical to the reference
// transcription of Algorithm 1:
//
//   - Bounds (norm lower bound, screening rejection) may be computed any
//     fast way, because they only ever *reject* candidates, and they are
//     shaded/slacked so that rejection is conservative under rounding.
//   - Accepted distances — every value that can reach a Link or an argmin
//     comparison — come from dist2, the reference accumulation order: a
//     single accumulator over ascending dimensions. Candidates that survive
//     screening are re-evaluated with dist2 before any comparison the
//     reference would make, so the engine's comparisons see exactly the
//     reference's float64 values.

// normBoundShade scales the norm lower bound down by a relative margin many
// orders of magnitude larger than the worst-case rounding error of the bound
// computation (~60-term dot products: tens of ulps). Shading keeps
// (‖a‖−‖b‖)² a true lower bound of ‖a−b‖² even in floating point, so the
// prune can never reject a candidate the reference would have accepted.
const normBoundShade = 1 - 1e-9

// dot is a blocked, unrolled dot product with four independent accumulators
// (instruction-level parallelism). It is used for row norms — bound inputs
// only — never for values that must match the reference summation order.
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(a); j += 4 {
		x := a[j : j+4 : j+4]
		y := b[j : j+4 : j+4]
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
	}
	for ; j < len(a); j++ {
		s0 += a[j] * b[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// dist2 is the straightforward squared Euclidean distance — the reference
// accumulation order every accepted distance must reproduce.
func dist2(a, b []float64) float64 {
	sum := 0.0
	for j := range a {
		d := a[j] - b[j]
		sum += d * d
	}
	return sum
}

// screenSlack inflates the screening rejection threshold by a relative
// margin far above the worst-case reordering error of a float64 summation
// of ~60 non-negative terms (|s_any_order − s_reference_order| ≤
// 2γ_n·Σterms ≈ 1.3e-14·sum for n = 60). A candidate is rejected only when
// its screened (partial) sum exceeds bound·screenSlack, which proves the
// reference-order sum strictly exceeds bound — so screening can never
// reject a candidate the reference scan would have accepted.
const screenSlack = 1 + 1e-12

// screenTailDist2 continues a screened evaluation over the packed tail
// dimensions, starting from the already-computed prefix partial sum. It
// reports whether the candidate survives: the combined sum is an any-order
// summation of exactly the rounded non-negative terms dist2 adds over all
// dimensions, so a strict excess over bound·screenSlack proves the
// reference-order total strictly exceeds bound. The comparisons are
// strictly-greater (not ≥) so a bound of 0 cannot silently reject an
// exact-duplicate candidate whose smaller column index would win the
// reference tie-break.
func screenTailDist2(a, b []float64, prefix, bound float64) bool {
	limit := bound * screenSlack
	s0 := prefix
	var s1, s2, s3 float64
	j := 0
	for ; j+16 <= len(a); j += 16 {
		x := a[j : j+16 : j+16]
		y := b[j : j+16 : j+16]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d4 := x[4] - y[4]
		d5 := x[5] - y[5]
		d6 := x[6] - y[6]
		d7 := x[7] - y[7]
		s0 += d4 * d4
		s1 += d5 * d5
		s2 += d6 * d6
		s3 += d7 * d7
		d8 := x[8] - y[8]
		d9 := x[9] - y[9]
		d10 := x[10] - y[10]
		d11 := x[11] - y[11]
		s0 += d8 * d8
		s1 += d9 * d9
		s2 += d10 * d10
		s3 += d11 * d11
		d12 := x[12] - y[12]
		d13 := x[13] - y[13]
		d14 := x[14] - y[14]
		d15 := x[15] - y[15]
		s0 += d12 * d12
		s1 += d13 * d13
		s2 += d14 * d14
		s3 += d15 * d15
		if s := (s0 + s1) + (s2 + s3); s > limit {
			return false
		}
	}
	for ; j+4 <= len(a); j += 4 {
		x := a[j : j+4 : j+4]
		y := b[j : j+4 : j+4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s0 += d * d
	}
	return (s0+s1)+(s2+s3) <= limit
}

// scanCounters accumulates per-worker pruning accounting, merged into Stats
// after parallel phases.
type scanCounters struct {
	evals       int64 // evaluations started (survived every cheap bound)
	normPruned  int64 // rejected by the norm window or segment-norm bound
	earlyExited int64 // aborted by the prefix or tail partial-distance screen
}

// screenPrefix is the width of the packed prefix array: the first
// screenPrefix screen-order (highest wild-variance) dimensions of every
// norm-sorted wild row, stored contiguously. A 60-dim float64 row is 480
// bytes — 8 cache lines — but most candidates are rejected within the first
// block of the screen, so the scan's memory traffic is dominated by row
// fetches that were never going to survive. The prefix array packs the
// rejecting dimensions at 128 bytes per candidate in walk order, cutting
// the traffic of the common reject path ~4× and making it sequential;
// only prefix survivors touch the full row.
const screenPrefix = 16

// screenSegments is the granularity of the segment-norm lower bound: the
// screen-order dimensions are split into this many contiguous segments and
// each row stores the Euclidean norm of every segment. For rows a, b with
// segment-norm vectors u, w the bound Σ_g(u_g−w_g)² = ‖u−w‖² satisfies
// ‖u−w‖² ≥ (‖u‖−‖w‖)² — it always dominates the global norm bound — and
// ‖u−w‖² ≤ ‖a−b‖² (reverse triangle inequality per segment), so it is a
// valid O(1) filter that rejects candidates whose mass is distributed
// differently across the feature space even when their total norms match —
// exactly the candidates the norm window cannot separate. At 32 bytes per
// candidate (packed, walk order) it costs a quarter of a prefix probe.
const screenSegments = 4

// engine bundles the weighted flat matrices, their precomputed row norms,
// and a search-ready layout of the problem:
//
//   - secS holds the security rows with dimensions permuted by descending
//     wild-pool variance (screen order). The screening kernels may sum
//     squared terms in any order (their slack covers reordering error), so
//     high-spread dimensions first makes the partial sum cross the
//     rejection bound as early as possible.
//   - The wild pool is stored sorted by ascending row norm (wldNS; orig
//     maps a sorted position back to the original wild index), split into
//     packed screen-order stripes that match the access pattern of the
//     staged rejection: wldG (segment norms, 32 B/candidate), wldP (the
//     first pw screen-order dimensions, see screenPrefix), and wldT (the
//     remaining tw dimensions, touched only by prefix survivors). The scan
//     walks each security row's norm neighborhood outward from a binary-
//     searched start, so every column outside the current bound's norm
//     window is skipped in bulk without even an O(1) per-column test, and
//     each surviving stage reads only the stripe it needs — sequentially,
//     because stripes are packed in walk order.
//   - secOrder lists security rows by ascending norm — the processing order
//     of the scan phase. Consecutive rows then walk strongly overlapping
//     norm windows, so the window's stripe data stays cache-resident from
//     one row to the next.
//
// Reference-order confirmation always reads the original matrices.
type engine struct {
	sec, wld   *Matrix
	secN, wldN []float64 // Euclidean norms of the weighted rows
	secS       *Matrix   // screen-order copy of sec
	secG       []float64 // m×screenSegments segment norms of secS rows
	wldNS      []float64 // sorted wild row norms, ascending
	orig       []int     // sorted position -> original wild index
	wldG       []float64 // n×screenSegments packed segment norms, walk order
	wldP       []float64 // n×pw packed screen-order prefixes, walk order
	wldT       []float64 // n×tw packed screen-order tails, walk order
	pw, tw     int       // stripe widths: pw+tw = cols
	secOrder   []int     // security rows by (norm, index) — scan order
}

func newEngine(sec, wld *Matrix) *engine {
	perm := screenPerm(wld)
	wldN := rowNorms(wld)
	n, cols := wld.rows, wld.cols

	// Order wild columns by (norm, original index) — deterministic, so every
	// Stats counter is a pure function of the input.
	orig := make([]int, n)
	for j := range orig {
		orig[j] = j
	}
	sort.Slice(orig, func(a, b int) bool {
		if wldN[orig[a]] != wldN[orig[b]] {
			return wldN[orig[a]] < wldN[orig[b]]
		}
		return orig[a] < orig[b]
	})
	pw := screenPrefix
	if cols < pw {
		pw = cols
	}
	tw := cols - pw
	wldNS := make([]float64, n)
	wldG := make([]float64, n*screenSegments)
	wldP := make([]float64, n*pw)
	wldT := make([]float64, n*tw)
	scratch := make([]float64, cols)
	for k, j := range orig {
		src := wld.Row(j)
		for t, p := range perm {
			scratch[t] = src[p]
		}
		copy(wldP[k*pw:(k+1)*pw], scratch[:pw])
		copy(wldT[k*tw:(k+1)*tw], scratch[pw:])
		segmentNorms(scratch, wldG[k*screenSegments:(k+1)*screenSegments], pw)
		wldNS[k] = wldN[j]
	}

	secN := rowNorms(sec)
	secOrder := make([]int, sec.rows)
	for i := range secOrder {
		secOrder[i] = i
	}
	sort.Slice(secOrder, func(a, b int) bool {
		if secN[secOrder[a]] != secN[secOrder[b]] {
			return secN[secOrder[a]] < secN[secOrder[b]]
		}
		return secOrder[a] < secOrder[b]
	})

	e := &engine{
		sec: sec, wld: wld,
		secN: secN, wldN: wldN,
		secS:  permuteCols(sec, perm),
		wldNS: wldNS, orig: orig,
		wldG: wldG, wldP: wldP, wldT: wldT,
		pw: pw, tw: tw,
		secOrder: secOrder,
	}
	e.secG = make([]float64, sec.rows*screenSegments)
	for i := 0; i < sec.rows; i++ {
		segmentNorms(e.secS.Row(i), e.secG[i*screenSegments:(i+1)*screenSegments], pw)
	}
	return e
}

// segmentNorms fills out with the screenSegments per-segment Euclidean
// norms of one screen-order row. Segment 0 covers exactly the prefix
// dimensions [0, pw); the remaining segments split the tail evenly. The
// alignment lets the scan reuse the tail segments (1..3) after the prefix
// sum is known: dist² = partial_prefix + dist²_tail ≥ p + Σ_{g≥1} gap²_g,
// a second rejection that costs one multiply-add on already-loaded data
// instead of a tail-stripe read.
func segmentNorms(row, out []float64, pw int) {
	out[0] = math.Sqrt(dot(row[:pw], row[:pw]))
	tail := row[pw:]
	tcols := len(tail)
	for g := 1; g < screenSegments; g++ {
		lo := (g - 1) * tcols / (screenSegments - 1)
		hi := g * tcols / (screenSegments - 1)
		seg := tail[lo:hi]
		out[g] = math.Sqrt(dot(seg, seg))
	}
}

// prefixDist2 is the first-stage screen: the squared distance restricted to
// the packed prefix dimensions, summed with independent accumulators. Its
// terms are a subset of the non-negative terms dist2 adds, so (up to the
// reordering error screenSlack covers) it is a lower bound of the full
// reference-order distance and may reject — never accept — candidates.
func prefixDist2(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(a); j += 4 {
		x := a[j : j+4 : j+4]
		y := b[j : j+4 : j+4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// prefixScreen evaluates the prefix partial distance with a rejection
// checkpoint every 8 dimensions: the candidate is rejected as soon as
// partial + add exceeds limit. Each checkpoint applies exactly the caller's
// final test, and the partial sum is monotone under the appended
// non-negative terms (adding t ≥ 0 to an accumulator never decreases its
// rounded value, and the final accumulator combination is monotone in each
// part) — so a midway rejection coincides with the decision the full prefix
// sum would have produced. Only wasted arithmetic is skipped; the rejected
// set, and with it every Stats counter, is unchanged.
func prefixScreen(a, b []float64, add, limit float64) (pd float64, live bool) {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+8 <= len(a); j += 8 {
		x := a[j : j+8 : j+8]
		y := b[j : j+8 : j+8]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d4 := x[4] - y[4]
		d5 := x[5] - y[5]
		d6 := x[6] - y[6]
		d7 := x[7] - y[7]
		s0 += d4 * d4
		s1 += d5 * d5
		s2 += d6 * d6
		s3 += d7 * d7
		if s := (s0 + s1) + (s2 + s3); s+add > limit {
			return s, false
		}
	}
	for ; j+4 <= len(a); j += 4 {
		x := a[j : j+4 : j+4]
		y := b[j : j+4 : j+4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s0 += d * d
	}
	pd = (s0 + s1) + (s2 + s3)
	return pd, pd+add <= limit
}

// screenPerm orders dimensions by descending variance over the wild pool
// (ties by ascending dimension, so the order — and with it every Stats
// counter — is deterministic for a given input).
func screenPerm(wld *Matrix) []int {
	d := wld.cols
	sum := make([]float64, d)
	sumSq := make([]float64, d)
	for i := 0; i < wld.rows; i++ {
		row := wld.Row(i)
		for j, x := range row {
			sum[j] += x
			sumSq[j] += x * x
		}
	}
	n := float64(wld.rows)
	variance := make([]float64, d)
	for j := 0; j < d; j++ {
		mean := sum[j] / n
		variance[j] = sumSq[j]/n - mean*mean
	}
	perm := make([]int, d)
	for j := range perm {
		perm[j] = j
	}
	sort.Slice(perm, func(a, b int) bool {
		if variance[perm[a]] != variance[perm[b]] {
			return variance[perm[a]] > variance[perm[b]]
		}
		return perm[a] < perm[b]
	})
	return perm
}

// permuteCols copies m with its columns reordered by perm.
func permuteCols(m *Matrix, perm []int) *Matrix {
	out := NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range perm {
			dst[k] = src[j]
		}
	}
	return out
}

// seedSpan is the per-side width of the bound-seeding sample: before its
// outward walk, every security row evaluates the exact distance to its
// 2·seedSpan nearest-norm wild rows. The smallest and second-smallest
// sampled distances are upper bounds on the row's final best and second-best
// (order statistics over a subset can only be ≥ those over the full set), so
// the walk prunes against min(current, seeded) from its very first step —
// before its own visits have tightened the running second-best.
const seedSpan = 64

// seedBounds samples the 2·seedSpan nearest-norm wild rows of security row i
// and returns the smallest and second-smallest exact distances — valid upper
// bounds for the row's final (best, second-best). The values are used only
// as pruning bounds, never recorded as candidates, so the walk's
// lexicographic state is built exclusively from its own confirmed visits.
func (e *engine) seedBounds(i int, c *scanCounters) (float64, float64) {
	row := e.sec.Row(i)
	n := len(e.wldNS)
	lo := sort.SearchFloat64s(e.wldNS, e.secN[i]) - seedSpan
	if lo < 0 {
		lo = 0
	}
	hi := lo + 2*seedSpan
	if hi > n {
		hi = n
		if lo = hi - 2*seedSpan; lo < 0 {
			lo = 0
		}
	}
	b1, b2 := inf, inf
	for k := lo; k < hi; k++ {
		c.evals++
		sum := dist2(row, e.wld.Row(e.orig[k]))
		if sum < b1 {
			b1, b2 = sum, b1
		} else if sum < b2 {
			b2 = sum
		}
	}
	return b1, b2
}

// Why the out-of-order scans below still reproduce the reference exactly:
// the reference's ascending scan with strict-< updates computes the
// lexicographically smallest (distance, column) pair — on equal distances
// the earlier column wins — and, for the two-best variant, the two
// lexicographically smallest pairs. A scan may therefore visit columns in
// ANY order and produce identical results, provided (1) every update
// comparison is lexicographic on (distance, original column index), and
// (2) every rejection path — the bulk norm-window break, the segment-norm
// bound, the prefix + tail-segment check, and the tail screen — rejects
// only candidates whose reference-order distance is guaranteed STRICTLY
// above the current bound, so a tie that would win by index can never be
// discarded. All four rejections here use strictly-greater comparisons on
// conservatively shaded/slacked bounds, which proves exactly that.

// scanRowSorted2 computes security row i's lexicographic (best, second-best)
// over the entire wild pool in one outward walk from the row's binary-
// searched norm position. The pruning bound at every step is min(d2, ub) —
// the eviction threshold for the (best, second) pair, capped by the row's
// seeded upper bound. Pruning against ub is exact for the same reason
// pruning against d2 is: both are ≥ the row's FINAL second-best at all
// times, so a strictly-greater rejection can only drop candidates outside
// the final two-best. Because the walk starts at the nearest-norm
// candidates — the likeliest true matches — d2 collapses to near-final
// within the first few visits, and once a side's norm gap alone proves
// every remaining column of that side is strictly worse than the bound,
// the whole remainder is skipped in bulk. Surviving columns pass the
// segment-norm bound, the packed prefix screen, and the tail screen, and
// only then pay for the reference-order dist2 — so every distance that
// reaches a comparison is bit-identical to the reference's.
func (e *engine) scanRowSorted2(i int, used []bool, c *scanCounters) (d1 float64, j1 int, d2 float64, j2 int) {
	row := e.sec.Row(i)
	rowS := e.secS.Row(i)
	pre := rowS[:e.pw]
	seg := e.secG[i*screenSegments : (i+1)*screenSegments : (i+1)*screenSegments]
	na := e.secN[i]
	n := len(e.wldNS)
	// Rescans (used != nil) cannot use the seeded cap: the sampled columns
	// may be taken, and a taken column's distance is no upper bound on the
	// remaining pool's second-best.
	ub := inf
	if used == nil {
		_, ub = e.seedBounds(i, c)
	}
	d1, d2 = inf, inf
	j1, j2 = -1, -1
	mid := sort.SearchFloat64s(e.wldNS, na)
	// Right side: norms ≥ na, norm gap grows with k.
	for k := mid; k < n; k++ {
		b := d2
		if ub < b {
			b = ub
		}
		diff := e.wldNS[k] - na
		if diff*diff*normBoundShade > b {
			c.normPruned += int64(n - k)
			break
		}
		if used != nil && used[e.orig[k]] {
			continue
		}
		sg := e.wldG[k*screenSegments : (k+1)*screenSegments : (k+1)*screenSegments]
		g0 := seg[0] - sg[0]
		g1 := seg[1] - sg[1]
		g2 := seg[2] - sg[2]
		g3 := seg[3] - sg[3]
		tailLb := (g1*g1 + g2*g2) + g3*g3
		if (g0*g0+tailLb)*normBoundShade > b {
			c.normPruned++
			continue
		}
		c.evals++
		p := prefixDist2(pre, e.wldP[k*e.pw:(k+1)*e.pw])
		if p+tailLb*normBoundShade > b*screenSlack {
			c.earlyExited++
			continue
		}
		d1, j1, d2, j2 = e.confirm2(k, row, rowS, p, c, d1, j1, d2, j2, b)
	}
	// Left side: norms < na, norm gap grows as k decreases.
	for k := mid - 1; k >= 0; k-- {
		b := d2
		if ub < b {
			b = ub
		}
		diff := na - e.wldNS[k]
		if diff*diff*normBoundShade > b {
			c.normPruned += int64(k + 1)
			break
		}
		if used != nil && used[e.orig[k]] {
			continue
		}
		sg := e.wldG[k*screenSegments : (k+1)*screenSegments : (k+1)*screenSegments]
		g0 := seg[0] - sg[0]
		g1 := seg[1] - sg[1]
		g2 := seg[2] - sg[2]
		g3 := seg[3] - sg[3]
		tailLb := (g1*g1 + g2*g2) + g3*g3
		if (g0*g0+tailLb)*normBoundShade > b {
			c.normPruned++
			continue
		}
		c.evals++
		p := prefixDist2(pre, e.wldP[k*e.pw:(k+1)*e.pw])
		if p+tailLb*normBoundShade > b*screenSlack {
			c.earlyExited++
			continue
		}
		d1, j1, d2, j2 = e.confirm2(k, row, rowS, p, c, d1, j1, d2, j2, b)
	}
	return d1, j1, d2, j2
}

// confirm2 runs one prefix-surviving candidate through the tail screen
// (continuing from the prefix sum, against bound — min of the current
// second-best and the seeded cap) and, if it survives, the reference-order
// confirmation and lexicographic two-best update.
func (e *engine) confirm2(k int, row, rowS []float64, p float64, c *scanCounters, d1 float64, j1 int, d2 float64, j2 int, bound float64) (float64, int, float64, int) {
	if !screenTailDist2(rowS[e.pw:], e.wldT[k*e.tw:(k+1)*e.tw], p, bound) {
		c.earlyExited++
		return d1, j1, d2, j2
	}
	j := e.orig[k]
	sum := dist2(row, e.wld.Row(j))
	if sum < d1 || (sum == d1 && j < j1) {
		d2, j2 = d1, j1
		d1, j1 = sum, j
	} else if sum < d2 || (sum == d2 && j < j2) {
		d2, j2 = sum, j
	}
	return d1, j1, d2, j2
}

// scanRowSortedBest is the single-best variant used by KNNSelect: it prunes
// against min(best, ub) — the best distance directly (a tighter bound than
// second-best), capped by the seeded best-distance upper bound.
func (e *engine) scanRowSortedBest(i int, c *scanCounters) (best float64, bestJ int) {
	row := e.sec.Row(i)
	rowS := e.secS.Row(i)
	pre := rowS[:e.pw]
	seg := e.secG[i*screenSegments : (i+1)*screenSegments : (i+1)*screenSegments]
	na := e.secN[i]
	n := len(e.wldNS)
	ub, _ := e.seedBounds(i, c)
	best, bestJ = inf, -1
	mid := sort.SearchFloat64s(e.wldNS, na)
	for k := mid; k < n; k++ {
		b := best
		if ub < b {
			b = ub
		}
		diff := e.wldNS[k] - na
		if diff*diff*normBoundShade > b {
			c.normPruned += int64(n - k)
			break
		}
		sg := e.wldG[k*screenSegments : (k+1)*screenSegments : (k+1)*screenSegments]
		g0 := seg[0] - sg[0]
		g1 := seg[1] - sg[1]
		g2 := seg[2] - sg[2]
		g3 := seg[3] - sg[3]
		tailLb := (g1*g1 + g2*g2) + g3*g3
		if (g0*g0+tailLb)*normBoundShade > b {
			c.normPruned++
			continue
		}
		c.evals++
		p := prefixDist2(pre, e.wldP[k*e.pw:(k+1)*e.pw])
		if p+tailLb*normBoundShade > b*screenSlack {
			c.earlyExited++
			continue
		}
		best, bestJ = e.confirmBest(k, row, rowS, p, c, best, bestJ, b)
	}
	for k := mid - 1; k >= 0; k-- {
		b := best
		if ub < b {
			b = ub
		}
		diff := na - e.wldNS[k]
		if diff*diff*normBoundShade > b {
			c.normPruned += int64(k + 1)
			break
		}
		sg := e.wldG[k*screenSegments : (k+1)*screenSegments : (k+1)*screenSegments]
		g0 := seg[0] - sg[0]
		g1 := seg[1] - sg[1]
		g2 := seg[2] - sg[2]
		g3 := seg[3] - sg[3]
		tailLb := (g1*g1 + g2*g2) + g3*g3
		if (g0*g0+tailLb)*normBoundShade > b {
			c.normPruned++
			continue
		}
		c.evals++
		p := prefixDist2(pre, e.wldP[k*e.pw:(k+1)*e.pw])
		if p+tailLb*normBoundShade > b*screenSlack {
			c.earlyExited++
			continue
		}
		best, bestJ = e.confirmBest(k, row, rowS, p, c, best, bestJ, b)
	}
	return best, bestJ
}

func (e *engine) confirmBest(k int, row, rowS []float64, p float64, c *scanCounters, best float64, bestJ int, bound float64) (float64, int) {
	if !screenTailDist2(rowS[e.pw:], e.wldT[k*e.tw:(k+1)*e.tw], p, bound) {
		c.earlyExited++
		return best, bestJ
	}
	j := e.orig[k]
	if sum := dist2(row, e.wld.Row(j)); sum < best || (sum == best && j < bestJ) {
		best, bestJ = sum, j
	}
	return best, bestJ
}
