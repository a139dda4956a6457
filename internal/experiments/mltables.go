package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/core/oversample"
	"patchdb/internal/corpus"
	"patchdb/internal/features"
	"patchdb/internal/ml"
	"patchdb/internal/ml/neural"
	"patchdb/internal/ml/tree"
)

// nearestLinkCandidates returns the pool indices selected by nearest link
// search for a verified seed. The pool features are flattened into the
// engine's row-major Matrix once and searched in place.
func nearestLinkCandidates(seedX [][]float64, pool []augment.Item) ([]int, error) {
	wildX := make([][]float64, len(pool))
	for i, it := range pool {
		wildX[i] = it.Features
	}
	sec, err := nearestlink.MatrixFromRows(seedX)
	if err != nil {
		return nil, err
	}
	wld, err := nearestlink.MatrixFromRows(wildX)
	if err != nil {
		return nil, err
	}
	links, err := nearestlink.SearchMatrix(context.Background(), sec, wld, nil)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(links))
	for i, l := range links {
		out[i] = l.Wild
	}
	return out, nil
}

// seqDataset couples token sequences with labels (and optional per-sample
// weights) for the RNN.
type seqDataset struct {
	seqs [][]string
	y    []int
	w    []float64 // nil = uniform
}

func (d *seqDataset) append(seq []string, label int) {
	d.seqs = append(d.seqs, seq)
	d.y = append(d.y, label)
	if d.w != nil {
		d.w = append(d.w, 1)
	}
}

// appendWeighted adds a sample with an explicit loss weight.
func (d *seqDataset) appendWeighted(seq []string, label int, weight float64) {
	if d.w == nil {
		d.w = make([]float64, len(d.seqs))
		for i := range d.w {
			d.w[i] = 1
		}
	}
	d.seqs = append(d.seqs, seq)
	d.y = append(d.y, label)
	d.w = append(d.w, weight)
}

func (l *Lab) tokenSeq(lc *corpus.LabeledCommit) []string {
	return features.TokenSequence(lc.Commit.Patch())
}

// splitCommits shuffles and splits a commit list 80/20.
func splitCommits(list []*corpus.LabeledCommit, rng *rand.Rand) (train, test []*corpus.LabeledCommit) {
	idx := rng.Perm(len(list))
	cut := len(list) * 8 / 10
	for i, j := range idx {
		if i < cut {
			train = append(train, list[j])
		} else {
			test = append(test, list[j])
		}
	}
	return train, test
}

// synthesizeFor generates synthetic token sequences from natural training
// commits using the source-level oversampler. maxPer bounds variants per
// natural patch. Planning and realizing run concurrently; the shuffles, the
// only draws from rng, run in list order, so the output is that of one
// Synthesize call per commit in order.
func (l *Lab) synthesizeFor(list []*corpus.LabeledCommit, label int, maxPer int, weight float64, out *seqDataset) (count int) {
	rng := rand.New(rand.NewSource(l.Scale.Seed + 777))
	ov := &oversample.Oversampler{MaxPerPatch: maxPer}
	plans := make([]*oversample.Plan, len(list))
	_ = parallel(len(list), func(i int) error {
		c := list[i].Commit
		plans[i] = ov.Plan(c.Patch(), c.Before, c.After)
		return nil
	})
	for _, p := range plans {
		p.Shuffle(rng)
	}
	seqs := make([][][]string, len(list))
	_ = parallel(len(list), func(i int) error {
		for _, s := range plans[i].Realize() {
			seqs[i] = append(seqs[i], features.TokenSequence(s.Patch))
		}
		return nil
	})
	for _, ss := range seqs {
		for _, seq := range ss {
			out.appendWeighted(seq, label, weight)
			count++
		}
	}
	return count
}

// rnnEpochs adapts the epoch count to the training-set size so small
// datasets still see enough gradient updates (~30K minimum).
func (l *Lab) rnnEpochs(n int) int {
	epochs := l.Scale.RNNEpochs
	if n > 0 && n*epochs < 30000 {
		epochs = (30000 + n - 1) / n
		if epochs > 40 {
			epochs = 40
		}
	}
	return epochs
}

// rnnRuns is the number of independently seeded RNN trainings averaged per
// evaluation cell; single runs are too noisy for the small deltas Table IV
// reports.
const rnnRuns = 2

// fitRNN trains one RNN on train and returns its test metrics.
func (l *Lab) fitRNN(train, test *seqDataset, seed int64) (ml.Metrics, error) {
	rnn := &neural.RNN{Epochs: l.rnnEpochs(len(train.seqs)), Seed: seed}
	if err := rnn.FitTokensWeighted(train.seqs, train.y, train.w); err != nil {
		return ml.Metrics{}, err
	}
	pred := make([]int, len(test.seqs))
	for i, s := range test.seqs {
		pred[i] = rnn.PredictTokens(s)
	}
	return ml.Evaluate(pred, test.y), nil
}

// TableIVRow is one configuration of the synthetic-patch study.
type TableIVRow struct {
	Dataset   string
	Synthetic string // "-" or the synthetic set sizes
	Metrics   ml.Metrics
}

// TableIV evaluates whether source-level synthetic patches improve RNN-based
// security patch identification on a small (NVD) and a large (NVD+wild)
// dataset.
type TableIV struct {
	Rows []TableIVRow
}

// tableIVSplit is one train/test split of a Table IV dataset: the natural
// training set and the same set plus synthetic patches, each fitted rnnRuns
// times and scored on one shared test set.
type tableIVSplit struct {
	train      [2]*seqDataset // natural, with synthetic patches
	test       *seqDataset
	nSec, nNon int // synthetic patches generated per class
	metrics    [2][rnnRuns]ml.Metrics
}

// RunTableIV reproduces Table IV. Each cell averages Scale.TableIVSplits
// independent splits (synthesis is redone from each training split, as the
// paper requires): the deltas the paper reports are smaller than
// single-split variance at reduced scale. The splits are built in order;
// then every RNN fit of both datasets runs concurrently, each from its own
// seed, and the averages are summed in a fixed order.
func (l *Lab) RunTableIV() (*TableIV, error) {
	tableIVSplits := l.Scale.TableIVSplits
	wildSec, err := l.WildSecurity()
	if err != nil {
		return nil, err
	}
	wildNon, err := l.WildNonSecurity()
	if err != nil {
		return nil, err
	}
	datasets := []commitGroup{
		{"NVD", l.NVD, l.NonSec},
		{"NVD+Wild", slices.Concat(l.NVD, wildSec), slices.Concat(l.NonSec, wildNon)},
	}

	splits := make([][]*tableIVSplit, len(datasets))
	var fits []func() error
	for d, set := range datasets {
		for split := 0; split < tableIVSplits; split++ {
			s := l.newTableIVSplit(set, split)
			splits[d] = append(splits[d], s)
			for k := range s.train {
				for r := range rnnRuns {
					seed := l.Scale.Seed + int64(split) + int64(r)*1000
					fits = append(fits, func() (err error) {
						s.metrics[k][r], err = l.fitRNN(s.train[k], s.test, seed)
						if err != nil {
							return fmt.Errorf("table IV (%s): %w", set.name, err)
						}
						return nil
					})
				}
			}
		}
	}
	if err := parallel(len(fits), func(i int) error { return fits[i]() }); err != nil {
		return nil, err
	}

	var t TableIV
	for d, set := range datasets {
		var avg [2]ml.Metrics // natural, with synthetic patches
		for _, s := range splits[d] {
			for k := range avg {
				var run ml.Metrics
				for _, m := range s.metrics[k] {
					accumulate(&run, m, rnnRuns)
				}
				accumulate(&avg[k], run, tableIVSplits)
			}
		}
		t.Rows = append(t.Rows,
			TableIVRow{Dataset: set.name, Synthetic: "-", Metrics: avg[0]},
			TableIVRow{Dataset: set.name, Synthetic: syntheticSizes(splits[d]), Metrics: avg[1]})
	}
	return &t, nil
}

// syntheticSizes renders the mean number of synthetic patches per split.
// The counts are summed before the one division, so no split's remainder is
// lost.
func syntheticSizes(splits []*tableIVSplit) string {
	var nSec, nNon int
	for _, s := range splits {
		nSec += s.nSec
		nNon += s.nNon
	}
	return fmt.Sprintf("~%d Sec. + ~%d NonSec.", nSec/len(splits), nNon/len(splits))
}

// newTableIVSplit builds one split of a Table IV dataset. Synthetic patches
// are generated solely from the training split and down-weighted so they
// enrich the natural distribution without dominating it.
func (l *Lab) newTableIVSplit(set commitGroup, split int) *tableIVSplit {
	rng := rand.New(rand.NewSource(l.Scale.Seed + 444 + int64(split)))
	secTrain, secTest := splitCommits(set.sec, rng)
	nonTrain, nonTest := splitCommits(set.non, rng)

	natural := &seqDataset{}
	for _, lc := range secTrain {
		natural.append(l.tokenSeq(lc), ml.Security)
	}
	for _, lc := range nonTrain {
		natural.append(l.tokenSeq(lc), ml.NonSecurity)
	}
	test := &seqDataset{}
	for _, lc := range secTest {
		test.append(l.tokenSeq(lc), ml.Security)
	}
	for _, lc := range nonTest {
		test.append(l.tokenSeq(lc), ml.NonSecurity)
	}

	withSyn := &seqDataset{}
	withSyn.seqs = append(withSyn.seqs, natural.seqs...)
	withSyn.y = append(withSyn.y, natural.y...)
	nSec := l.synthesizeFor(secTrain, ml.Security, 5, 0.5, withSyn)
	nNon := l.synthesizeFor(nonTrain, ml.NonSecurity, 3, 0.5, withSyn)
	return &tableIVSplit{train: [2]*seqDataset{natural, withSyn}, test: test, nSec: nSec, nNon: nNon}
}

// accumulate adds m/n into agg: one of the n terms of an average over RNN
// runs or splits.
func accumulate(agg *ml.Metrics, m ml.Metrics, n int) {
	agg.Precision += m.Precision / float64(n)
	agg.Recall += m.Recall / float64(n)
	agg.F1 += m.F1 / float64(n)
	agg.Accuracy += m.Accuracy / float64(n)
	agg.TP += m.TP
	agg.FP += m.FP
	agg.TN += m.TN
	agg.FN += m.FN
}

// String renders Table IV.
func (t *TableIV) String() string {
	var b strings.Builder
	b.WriteString("Table IV: Performance w/o or w/ synthetic patches (RNN)\n")
	fmt.Fprintf(&b, "%-10s %-28s %-10s %s\n", "Dataset", "Synthetic Dataset", "Precision", "Recall")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-28s %-10.1f %.1f\n",
			r.Dataset, r.Synthetic, 100*r.Metrics.Precision, 100*r.Metrics.Recall)
	}
	return b.String()
}

// TableVIRow is one (training set, algorithm, test set) cell pair.
type TableVIRow struct {
	TrainSet  string
	Algorithm string
	TestSet   string
	Metrics   ml.Metrics
}

// TableVI studies dataset quality: generalization of models trained on NVD
// vs NVD+wild, tested on NVD and wild.
type TableVI struct {
	Rows []TableVIRow
}

// commitGroup is a named set of security and non-security commits: a
// dataset of Table IV, or a training or test group of Table VI.
type commitGroup struct {
	name string
	sec  []*corpus.LabeledCommit
	non  []*corpus.LabeledCommit
}

// RunTableVI reproduces Table VI with a Random Forest over statistical
// features and the RNN over token sequences.
func (l *Lab) RunTableVI() (*TableVI, error) {
	wildSec, err := l.WildSecurity()
	if err != nil {
		return nil, err
	}
	wildNon, err := l.WildNonSecurity()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(l.Scale.Seed + 555))

	nvdSecTrain, nvdSecTest := splitCommits(l.NVD, rng)
	nvdNonTrain, nvdNonTest := splitCommits(l.NonSec, rng)
	wildSecTrain, wildSecTest := splitCommits(wildSec, rng)
	wildNonTrain, wildNonTest := splitCommits(wildNon, rng)

	trainSets := []commitGroup{
		{"NVD", nvdSecTrain, nvdNonTrain},
		{"NVD+Wild", slices.Concat(nvdSecTrain, wildSecTrain), slices.Concat(nvdNonTrain, wildNonTrain)},
	}
	testSets := []commitGroup{
		{"NVD", nvdSecTest, nvdNonTest},
		{"Wild", wildSecTest, wildNonTest},
	}

	// Each training group fits its own forest and RNN from fixed seeds, so
	// the groups run concurrently and their rows are joined in group order.
	rows := make([][]TableVIRow, len(trainSets))
	if err := parallel(len(trainSets), func(g int) error {
		var err error
		rows[g], err = l.tableVIGroup(trainSets[g], testSets)
		return err
	}); err != nil {
		return nil, err
	}
	return &TableVI{Rows: slices.Concat(rows...)}, nil
}

// tableVIGroup is the rows of one Table VI training group: a Random Forest
// over statistical features and the RNN over token sequences, each scored
// on every test group.
func (l *Lab) tableVIGroup(tr commitGroup, testSets []commitGroup) ([]TableVIRow, error) {
	var rows []TableVIRow
	// Random Forest on the 60 statistical features.
	ds := &ml.Dataset{}
	for _, lc := range tr.sec {
		ds.Append(l.Features(lc), ml.Security, "")
	}
	for _, lc := range tr.non {
		ds.Append(l.Features(lc), ml.NonSecurity, "")
	}
	rf := &tree.Forest{Trees: 60, Seed: l.Scale.Seed}
	if err := rf.Fit(ds.X, ds.Y); err != nil {
		return nil, fmt.Errorf("table VI rf: %w", err)
	}
	for _, te := range testSets {
		test := &ml.Dataset{}
		for _, lc := range te.sec {
			test.Append(l.Features(lc), ml.Security, "")
		}
		for _, lc := range te.non {
			test.Append(l.Features(lc), ml.NonSecurity, "")
		}
		rows = append(rows, TableVIRow{
			TrainSet: tr.name, Algorithm: "Random Forest", TestSet: te.name,
			Metrics: ml.EvaluateClassifier(rf, test),
		})
	}

	// RNN on token sequences.
	seqTrain := &seqDataset{}
	for _, lc := range tr.sec {
		seqTrain.append(l.tokenSeq(lc), ml.Security)
	}
	for _, lc := range tr.non {
		seqTrain.append(l.tokenSeq(lc), ml.NonSecurity)
	}
	rnn := &neural.RNN{Epochs: l.rnnEpochs(len(seqTrain.seqs)), Seed: l.Scale.Seed + 2}
	if err := rnn.FitTokens(seqTrain.seqs, seqTrain.y); err != nil {
		return nil, fmt.Errorf("table VI rnn: %w", err)
	}
	for _, te := range testSets {
		seqTest := &seqDataset{}
		for _, lc := range te.sec {
			seqTest.append(l.tokenSeq(lc), ml.Security)
		}
		for _, lc := range te.non {
			seqTest.append(l.tokenSeq(lc), ml.NonSecurity)
		}
		pred := make([]int, len(seqTest.seqs))
		for i, s := range seqTest.seqs {
			pred[i] = rnn.PredictTokens(s)
		}
		rows = append(rows, TableVIRow{
			TrainSet: tr.name, Algorithm: "RNN", TestSet: te.name,
			Metrics: ml.Evaluate(pred, seqTest.y),
		})
	}
	return rows, nil
}

// String renders Table VI.
func (t *TableVI) String() string {
	var b strings.Builder
	b.WriteString("Table VI: Impacts of datasets over learning-based models\n")
	fmt.Fprintf(&b, "%-10s %-15s %-8s %-10s %s\n", "Train", "Algorithm", "Test", "Precision", "Recall")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-15s %-8s %-10.1f %.1f\n",
			r.TrainSet, r.Algorithm, r.TestSet, 100*r.Metrics.Precision, 100*r.Metrics.Recall)
	}
	return b.String()
}
