package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"patchdb/internal/core/baselines"
	"patchdb/internal/corpus"
	"patchdb/internal/fixpattern"
	"patchdb/internal/ml"
)

// TableII reproduces the five-round augmentation accounting (candidates,
// verified security patches, and ratio per round).
type TableII struct {
	Rows []SetRound
	// NVDCount is the seed size.
	NVDCount int
	// TotalSecurity is the final security patch count (NVD + wild).
	TotalSecurity int
	// TotalNonSecurity is the cleaned non-security set discovered.
	TotalNonSecurity int
}

// RunTableII executes the schedule and assembles the table.
func (l *Lab) RunTableII() (*TableII, error) {
	rows, err := l.RunAugmentation()
	if err != nil {
		return nil, err
	}
	t := &TableII{Rows: rows, NVDCount: len(l.NVD), TotalSecurity: len(l.NVD)}
	for _, r := range rows {
		t.TotalSecurity += r.Verified
		t.TotalNonSecurity += r.Candidates - r.Verified
	}
	return t, nil
}

// String renders the table in the paper's layout.
func (t *TableII) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: # of security patches identified per round\n")
	fmt.Fprintf(&b, "%-16s %-6s %-11s %-9s %s\n", "Search Range", "Round", "Candidates", "Verified", "Ratio")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s %-6d %-11d %-9d %.0f%%\n",
			r.Set, r.Round.Round, r.Candidates, r.Verified, 100*r.Ratio)
	}
	fmt.Fprintf(&b, "total security patches: %d (wild-discovered: %d), cleaned non-security: %d\n",
		t.TotalSecurity, t.TotalSecurity-t.NVDCount, t.TotalNonSecurity)
	return b.String()
}

// TableIIIRow is one augmentation method's outcome.
type TableIIIRow struct {
	Method     string
	Unlabeled  int
	Candidates int
	// SecurityPct is the fraction of candidates verified as security.
	SecurityPct float64
	// CI95 is the 95% confidence half-width over the verified sample.
	CI95 float64
	// SampleSize is how many candidates were manually verified.
	SampleSize int
}

// TableIII compares brute force, pseudo labeling, uncertainty-based
// labeling, and nearest link search on one unlabeled pool.
type TableIII struct {
	Rows []TableIIIRow
}

// RunTableIII reproduces the comparison. The training data is the NVD-based
// dataset (positives) plus the cleaned non-security dataset (negatives), as
// in the paper; the pool is Set II.
func (l *Lab) RunTableIII() (*TableIII, error) {
	rng := rand.New(rand.NewSource(l.Scale.Seed + 333))
	pool := l.Items(l.SetII)
	seedX := l.FeatureRows(l.NVD)

	train := &ml.Dataset{}
	for _, lc := range l.NVD {
		train.Append(l.Features(lc), ml.Security, lc.Commit.Hash)
	}
	for _, lc := range l.NonSec {
		train.Append(l.Features(lc), ml.NonSecurity, lc.Commit.Hash)
	}

	verifySample := func(idx []int) (pct, ci float64, n int) {
		if len(idx) == 0 {
			return 0, 0, 0
		}
		sample := idx
		if len(sample) > l.Scale.VerifySample {
			perm := rng.Perm(len(idx))
			sample = make([]int, l.Scale.VerifySample)
			for i := range sample {
				sample[i] = idx[perm[i]]
			}
		}
		hits := 0
		for _, j := range sample {
			if l.Oracle.Verify(pool[j].ID) {
				hits++
			}
		}
		p := float64(hits) / float64(len(sample))
		return p, ml.ConfidenceInterval95(p, len(sample)), len(sample)
	}

	// The three model-driven candidate lists touch neither rng nor the
	// oracle, so they are computed concurrently; brute force and every
	// verification then draw from rng in a fixed order.
	methods := []struct {
		name string
		find func() ([]int, error)
	}{
		{"Pseudo Labeling", func() ([]int, error) {
			return baselines.PseudoLabeling(train, pool, len(l.NVD), l.Scale.Seed)
		}},
		{"Uncertainty-based Labeling", func() ([]int, error) {
			return baselines.Uncertainty(train, pool, l.Scale.Seed)
		}},
		{"Nearest Link Search (ours)", func() ([]int, error) {
			return nearestLinkCandidates(seedX, pool)
		}},
	}
	candidates := make([][]int, len(methods))
	if err := parallel(len(methods), func(i int) error {
		var err error
		candidates[i], err = methods[i].find()
		return err
	}); err != nil {
		return nil, fmt.Errorf("table III: %w", err)
	}

	var t TableIII
	bf := baselines.BruteForce(pool, l.Scale.VerifySample, rng)
	pct, ci, n := verifySample(bf)
	t.Rows = append(t.Rows, TableIIIRow{
		Method: "Brute Force Search", Unlabeled: len(pool), Candidates: len(pool),
		SecurityPct: pct, CI95: ci, SampleSize: n,
	})
	for i, m := range methods {
		pct, ci, n := verifySample(candidates[i])
		t.Rows = append(t.Rows, TableIIIRow{
			Method: m.name, Unlabeled: len(pool), Candidates: len(candidates[i]),
			SecurityPct: pct, CI95: ci, SampleSize: n,
		})
	}
	return &t, nil
}

// String renders the comparison like the paper.
func (t *TableIII) String() string {
	var b strings.Builder
	b.WriteString("Table III: Comparison with other augmentation methods\n")
	fmt.Fprintf(&b, "%-28s %-10s %-11s %s\n", "Method", "Unlabeled", "Candidates", "Security Patches (%)")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s %-10d %-11d %.0f(±%.1f)%%\n",
			r.Method, r.Unlabeled, r.Candidates, 100*r.SecurityPct, 100*r.CI95)
	}
	return b.String()
}

// TypeDistribution counts security patches per pattern class.
type TypeDistribution struct {
	Counts [corpus.NumPatterns]int
	Total  int
}

// Add records one patch.
func (d *TypeDistribution) Add(p corpus.Pattern) {
	if p >= 1 && int(p) <= corpus.NumPatterns {
		d.Counts[p-1]++
		d.Total++
	}
}

// Pct returns the percentage of class p.
func (d *TypeDistribution) Pct(p corpus.Pattern) float64 {
	if d.Total == 0 {
		return 0
	}
	return 100 * float64(d.Counts[p-1]) / float64(d.Total)
}

// TableV is the security patch pattern distribution of the whole PatchDB.
type TableV struct {
	Dist TypeDistribution
}

// RunTableV categorizes all security patches (NVD + discovered wild).
func (l *Lab) RunTableV() (*TableV, error) {
	wild, err := l.WildSecurity()
	if err != nil {
		return nil, err
	}
	var t TableV
	for _, lc := range l.NVD {
		t.Dist.Add(lc.Pattern)
	}
	for _, lc := range wild {
		t.Dist.Add(lc.Pattern)
	}
	return &t, nil
}

// String renders the distribution like Table V.
func (t *TableV) String() string {
	var b strings.Builder
	b.WriteString("Table V: Security patch distribution in PatchDB\n")
	fmt.Fprintf(&b, "%-4s %-40s %s\n", "ID", "Type of patch pattern", "%")
	for p := corpus.Pattern(1); int(p) <= corpus.NumPatterns; p++ {
		fmt.Fprintf(&b, "%-4d %-40s %.1f%%\n", int(p), p.String(), t.Dist.Pct(p))
	}
	fmt.Fprintf(&b, "total security patches: %d\n", t.Dist.Total)
	return b.String()
}

// Figure6 contrasts the NVD-based and wild-based type distributions.
type Figure6 struct {
	NVD  TypeDistribution
	Wild TypeDistribution
}

// RunFigure6 computes both distributions.
func (l *Lab) RunFigure6() (*Figure6, error) {
	wild, err := l.WildSecurity()
	if err != nil {
		return nil, err
	}
	var f Figure6
	for _, lc := range l.NVD {
		f.NVD.Add(lc.Pattern)
	}
	for _, lc := range wild {
		f.Wild.Add(lc.Pattern)
	}
	return &f, nil
}

// HeadClass returns the most frequent pattern of a distribution.
func HeadClass(d *TypeDistribution) corpus.Pattern {
	best := corpus.Pattern(1)
	for p := corpus.Pattern(2); int(p) <= corpus.NumPatterns; p++ {
		if d.Counts[p-1] > d.Counts[best-1] {
			best = p
		}
	}
	return best
}

// String renders both distributions side by side with text bars.
func (f *Figure6) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: NVD-based vs wild-based type distribution\n")
	fmt.Fprintf(&b, "%-4s %-8s %-26s %-8s %s\n", "Type", "NVD %", "", "Wild %", "")
	for p := corpus.Pattern(1); int(p) <= corpus.NumPatterns; p++ {
		np := f.NVD.Pct(p)
		wp := f.Wild.Pct(p)
		fmt.Fprintf(&b, "%-4d %6.1f%%  %-25s %6.1f%%  %s\n",
			int(p), np, bar(np), wp, bar(wp))
	}
	fmt.Fprintf(&b, "head class: NVD=Type %d, wild=Type %d\n",
		int(HeadClass(&f.NVD)), int(HeadClass(&f.Wild)))
	return b.String()
}

func bar(pct float64) string {
	n := int(pct / 1.5)
	if n > 25 {
		n = 25
	}
	return strings.Repeat("#", n)
}

// TableVII holds mined fix-pattern templates (the paper shows two
// hand-summarized examples; we mine them mechanically from the built
// dataset).
type TableVII struct {
	Templates []fixpattern.Template
}

// RunTableVII mines fix patterns from all security patches (NVD +
// discovered wild).
func (l *Lab) RunTableVII() (*TableVII, error) {
	wild, err := l.WildSecurity()
	if err != nil {
		return nil, err
	}
	inputs := make([]fixpattern.Input, 0, len(l.NVD)+len(wild))
	for _, lc := range slices.Concat(l.NVD, wild) {
		inputs = append(inputs, fixpattern.Input{Patch: lc.Commit.Patch(), Pattern: lc.Pattern})
	}
	miner := fixpattern.Miner{MinSupport: max(3, len(inputs)/100), TopK: 2}
	return &TableVII{Templates: miner.Mine(inputs)}, nil
}

// String renders the mined templates.
func (t *TableVII) String() string {
	return fixpattern.Render(t.Templates)
}
