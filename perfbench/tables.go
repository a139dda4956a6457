package main

import (
	"fmt"
	"runtime"
	"time"

	"patchdb/internal/core/baselines"
	"patchdb/internal/experiments"
	"patchdb/internal/features"
	"patchdb/internal/ml"
	"patchdb/internal/ml/bayes"
	"patchdb/internal/ml/linear"
	"patchdb/internal/ml/neural"
	"patchdb/internal/ml/tree"
)

// tablesGolden is the SHA-256 of Tables II, III and VI rendered from
// experiments.SmallScale on amd64. The reproduction is bit-identical by
// contract, so any other digest is a wrong output, not a slower one.
const tablesGolden = "b70ff30bf297712d0f143366687d5b774ad323716a696789b773e43e5c479177"

// tablesScale is the `tables` workload's input. The full size is the
// reproduction itself: SmallScale at its own seed. The workload seed does
// not change it, because the reproduction's cost depends on the lab seed far
// beyond any bound this benchmark could hold (SMO convergence: 24.5 s to
// 59.6 s of Tables II+III+VI over lab seeds 1 to 4), while users only ever
// run the published seed. The smoke size follows the workload seed.
func tablesScale(tiny bool, seed int64) experiments.Scale {
	if !tiny {
		return experiments.SmallScale
	}
	return experiments.Scale{
		Name: "smoke", NVDSeed: 16, NonSecSeed: 32,
		SetI: 200, SetII: 250, SetIII: 250, VerifySample: 30,
		Seed: seed, RNNEpochs: 1, TableIVSplits: 1,
	}
}

// runTables is the `tables` workload: a fresh lab, then Tables II, III and
// VI in order, as patchdb-bench runs them. Table IV is left out: it repeats
// Table VI's RNN path at six times the cost. A traced run then fits each
// classifier and the RNN on their own.
func runTables(c config, tr *tracer) (*result, error) {
	scale := tablesScale(c.tiny, c.seed)
	res := &result{Attempted: 1}
	var lab *experiments.Lab
	var setups []float64
	for range setupRepeats {
		lab = nil
		runtime.GC()
		start := time.Now()
		lab = experiments.NewLab(scale)
		setups = append(setups, seconds(time.Since(start)))
	}

	runtime.GC()
	before := readRuntime()
	start := time.Now()
	t2, err := lab.RunTableII()
	if err != nil {
		return nil, fmt.Errorf("table II: %w", err)
	}
	end2 := time.Now()
	t3, err := lab.RunTableIII()
	if err != nil {
		return nil, fmt.Errorf("table III: %w", err)
	}
	end3 := time.Now()
	t6, err := lab.RunTableVI()
	if err != nil {
		return nil, fmt.Errorf("table VI: %w", err)
	}
	end := time.Now()
	after := readRuntime()

	digest := sha([]byte(t2.String() + t3.String() + t6.String()))
	res.expect("tables.shape", fmt.Sprintf("II=%d III=%d VI=%d rows", len(t2.Rows), len(t3.Rows), len(t6.Rows)),
		len(t2.Rows) >= 1 && len(t2.Rows) <= 5 && len(t3.Rows) == 4 && len(t6.Rows) == 8)
	golden := c.tiny || runtime.GOARCH != "amd64" || digest == tablesGolden
	res.expect("tables.rendered_sha256", digest, golden)

	total := end.Sub(start)
	res.e2e("latency_ms", millis(total), "ms", 1)
	res.e2e("setup_s", median(setups), "s", len(setups))
	res.e2e("alloc_mb", before.allocMB(after), "MB", 1)
	res.extra("tables_s", seconds(total), "s", 1)
	if tr == nil {
		return res, nil
	}

	root := tr.add("tables", -1, start, end)
	tr.add("experiments.table_ii", root, start, end2)
	tr.add("experiments.table_iii", root, end2, end3)
	tr.add("experiments.table_vi", root, end3, end)
	res.layer("experiments.table_ii_s", seconds(end2.Sub(start)), "s", 1)
	res.layer("experiments.table_iii_s", seconds(end3.Sub(end2)), "s", 1)
	res.layer("experiments.table_vi_s", seconds(end.Sub(end3)), "s", 1)
	gcCPU := after.gcCPU - before.gcCPU
	res.layer("tables.gc_cpu_fraction", gcCPU/max(after.totalCPU-before.totalCPU, 1e-9), "1", 1)
	res.layer("tables.gc_cycles", float64(after.gcCycles-before.gcCycles), "count", 1)
	return res, probeModels(lab, scale, tr, res)
}

// classifierName maps each of the ten ensemble models to its layer name.
func classifierName(m ml.Classifier) (string, error) {
	switch m.(type) {
	case *linear.SMO:
		return "linear.smo", nil
	case *linear.SVM:
		return "linear.svm", nil
	case *linear.Logistic:
		return "linear.logistic", nil
	case *linear.SGD:
		return "linear.sgd", nil
	case *linear.VotedPerceptron:
		return "linear.perceptron", nil
	case *bayes.GaussianNB:
		return "bayes.nb", nil
	case *bayes.TAN:
		return "bayes.tan", nil
	case *tree.Tree:
		return "tree.j48", nil
	case *tree.REPTree:
		return "tree.rep", nil
	case *tree.Forest:
		return "tree.forest", nil
	}
	return "", fmt.Errorf("tables: unknown ensemble model %T", m)
}

// probeModels times the model layers on Table III's and Table VI's inputs:
// each ensemble classifier's fit on the NVD + non-security training set,
// the ensemble's predictions over Set II, and one RNN fit and prediction
// pass over the same commits' token sequences.
func probeModels(lab *experiments.Lab, scale experiments.Scale, tr *tracer, res *result) error {
	root := tr.add("tables.models", -1, time.Now(), time.Now())
	train := &ml.Dataset{}
	for _, lc := range lab.NVD {
		train.Append(lab.Features(lc), ml.Security, lc.Commit.Hash)
	}
	for _, lc := range lab.NonSec {
		train.Append(lab.Features(lc), ml.NonSecurity, lc.Commit.Hash)
	}
	models := baselines.TenClassifiers(scale.Seed)
	for _, m := range models {
		name, err := classifierName(m)
		if err != nil {
			return err
		}
		s := time.Now()
		if err := m.Fit(train.X, train.Y); err != nil {
			return fmt.Errorf("%s fit: %w", name, err)
		}
		e := time.Now()
		tr.add(name+".fit", root, s, e)
		res.layer(name+".fit_s", seconds(e.Sub(s)), "s", 1)
	}

	pool := lab.FeatureRows(lab.SetII)
	s := time.Now()
	positive := 0
	for _, row := range pool {
		for _, m := range models {
			positive += m.Predict(row)
		}
	}
	e := time.Now()
	tr.add("ensemble.predict", root, s, e)
	res.layer("ensemble.predict_s", seconds(e.Sub(s)), "s", len(pool)*len(models))
	res.expect("ensemble.predictions", fmt.Sprintf("%d positive of %d", positive, len(pool)*len(models)), positive > 0)

	var seqs [][]string
	var y []int
	for _, lc := range lab.NVD {
		seqs = append(seqs, features.TokenSequence(lc.Commit.Patch()))
		y = append(y, ml.Security)
	}
	for _, lc := range lab.NonSec {
		seqs = append(seqs, features.TokenSequence(lc.Commit.Patch()))
		y = append(y, ml.NonSecurity)
	}
	// Table VI's epoch rule: at least ~30K sequence presentations, at most
	// 40 epochs.
	epochs := scale.RNNEpochs
	if n := len(seqs); n*epochs < 30000 {
		epochs = min(40, (30000+n-1)/n)
	}
	rnn := &neural.RNN{Epochs: epochs, Seed: scale.Seed + 2}
	s = time.Now()
	if err := rnn.FitTokens(seqs, y); err != nil {
		return fmt.Errorf("rnn fit: %w", err)
	}
	e = time.Now()
	tr.add("neural.rnn.fit", root, s, e)
	steps := 0
	for _, seq := range seqs {
		steps += min(len(seq), rnn.MaxLen)
	}
	steps *= rnn.Epochs
	fit := e.Sub(s)
	res.layer("neural.rnn.fit_s", seconds(fit), "s", 1)
	res.layer("neural.rnn.token_steps", float64(steps), "count", 1)
	res.layer("neural.rnn.ns_per_step", float64(fit.Nanoseconds())/float64(max(steps, 1)), "ns", steps)
	s = time.Now()
	for _, seq := range seqs {
		rnn.PredictTokens(seq)
	}
	e = time.Now()
	tr.add("neural.rnn.predict", root, s, e)
	tr.finish(root, e)
	res.layer("neural.rnn.predict_s", seconds(e.Sub(s)), "s", len(seqs))
	return nil
}
