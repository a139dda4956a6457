package linear

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"patchdb/internal/ml"
)

// linearly generates a linearly separable problem with margin and optional
// label noise.
func linearly(n int, seed int64, noise float64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		c := rng.NormFloat64() * 0.1
		x[i] = []float64{a, b, c}
		if a+2*b > 0.3 {
			y[i] = 1
		} else if a+2*b < -0.3 {
			y[i] = 0
		} else {
			y[i] = rng.Intn(2) // margin region: random
		}
		if rng.Float64() < noise {
			y[i] = 1 - y[i]
		}
	}
	return x, y
}

func accuracy(c ml.Classifier, x [][]float64, y []int) float64 {
	hits := 0
	for i := range x {
		if c.Predict(x[i]) == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(x))
}

func models(seed int64) map[string]ml.Classifier {
	return map[string]ml.Classifier{
		"logistic":         &Logistic{},
		"sgd":              &SGD{Seed: seed},
		"svm":              &SVM{Seed: seed},
		"smo":              &SMO{Seed: seed},
		"voted-perceptron": &VotedPerceptron{Seed: seed},
	}
}

func TestAllModelsLearnSeparable(t *testing.T) {
	x, y := linearly(500, 1, 0)
	xt, yt := linearly(300, 2, 0)
	for name, m := range models(3) {
		t.Run(name, func(t *testing.T) {
			if err := m.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			if acc := accuracy(m, xt, yt); acc < 0.82 {
				t.Errorf("%s test accuracy = %.2f", name, acc)
			}
		})
	}
}

func TestAllModelsRejectEmpty(t *testing.T) {
	for name, m := range models(4) {
		if err := m.Fit(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestAllModelsProbaRange(t *testing.T) {
	x, y := linearly(300, 5, 0.1)
	for name, m := range models(6) {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		for _, row := range x[:50] {
			p := m.Proba(row)
			if p < 0 || p > 1 {
				t.Fatalf("%s proba %v out of [0,1]", name, p)
			}
		}
	}
}

func TestUnfitProbaZero(t *testing.T) {
	for name, m := range models(7) {
		if p := m.Proba([]float64{1, 2, 3}); p != 0 {
			t.Errorf("%s unfit proba = %v", name, p)
		}
	}
}

func TestLogisticProbaMonotone(t *testing.T) {
	// Points deeper in the positive half-space must get higher probability.
	x, y := linearly(500, 8, 0)
	l := &Logistic{}
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	weak := l.Proba([]float64{0.2, 0.2, 0})
	strong := l.Proba([]float64{3, 3, 0})
	if strong <= weak {
		t.Errorf("proba not monotone along the positive direction: %v <= %v", strong, weak)
	}
}

func TestSVMMarginSign(t *testing.T) {
	x, y := linearly(500, 9, 0)
	s := &SVM{Seed: 10}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if s.Margin([]float64{3, 3, 0}) <= 0 {
		t.Error("deep positive point has non-positive margin")
	}
	if s.Margin([]float64{-3, -3, 0}) >= 0 {
		t.Error("deep negative point has non-negative margin")
	}
}

func TestSMOSubsamples(t *testing.T) {
	// SMO must cap its working set and still learn.
	x, y := linearly(3000, 11, 0)
	s := &SMO{Seed: 12, MaxRows: 300}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := linearly(300, 13, 0)
	if acc := accuracy(s, xt, yt); acc < 0.8 {
		t.Errorf("subsampled SMO accuracy = %.2f", acc)
	}
}

func TestStandardizerConstantDim(t *testing.T) {
	s := fitStandardizer([][]float64{{1, 5}, {2, 5}, {3, 5}})
	row := s.apply([]float64{2, 5})
	if row[1] != 0 {
		t.Errorf("constant dim standardized to %v", row[1])
	}
	if row[0] != 0 {
		t.Errorf("mean point standardized to %v, want 0", row[0])
	}
}

func TestVotedPerceptronCapsVectors(t *testing.T) {
	x, y := linearly(2000, 14, 0.3) // noisy: many mistakes, many vectors
	v := &VotedPerceptron{Seed: 15, MaxVectors: 20, Epochs: 3}
	if err := v.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(v.vectors) > 21 {
		t.Errorf("stored vectors = %d, cap 20(+1)", len(v.vectors))
	}
}

// goldenData draws n rows of d normal features labelled by a fixed
// hyperplane, with 15% of the labels flipped so the SMO solution has bound
// and free support vectors.
func goldenData(n, d int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	plane := make([]float64, d)
	for j := range plane {
		plane[j] = rng.NormFloat64()
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * float64(j+1)
		}
		if dot(plane, x[i]) > 0 {
			y[i] = 1
		}
		if rng.Float64() < 0.15 {
			y[i] = 1 - y[i]
		}
	}
	return x, y
}

// floatDigest is the SHA-256 of the IEEE-754 bits of vs, in order.
func floatDigest(vs ...float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSMOGolden pins SMO's trained weights bit for bit, for a training set
// smaller than MaxRows and for one SMO subsamples. The digests were recorded
// on amd64; platforms that fuse multiply-adds may round differently.
func TestSMOGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	for _, tc := range []struct {
		name    string
		n       int
		maxRows int
		want    string
	}{
		{"all-rows", 240, 0, "718cf999bcbae8b4bb2dbff481b22a0102e6384e666041675d9d013015dd89ae"},
		{"subsampled", 400, 150, "84d587c57e3ecdc27fbe3f728f913971906207a01b51eeef794a343d428d1c4a"},
	} {
		x, y := goldenData(tc.n, 9, 31)
		s := &SMO{Seed: 32, MaxRows: tc.maxRows}
		if err := s.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if got := floatDigest(append(append([]float64(nil), s.w...), s.b)...); got != tc.want {
			t.Errorf("%s: digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSMOTinyTrainingSets covers training sets too small for a pair: one
// row must predict its own label, two rows must separate.
func TestSMOTinyTrainingSets(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    [][]float64
		y    []int
	}{
		{"one security row", [][]float64{{1, 2}}, []int{1}},
		{"one non-security row", [][]float64{{1, 2}}, []int{0}},
		{"two rows", [][]float64{{1, 2}, {-1, 0}}, []int{1, 0}},
		{"two rows flipped", [][]float64{{1, 2}, {-1, 0}}, []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &SMO{Seed: 33}
			if err := s.Fit(tc.x, tc.y); err != nil {
				t.Fatal(err)
			}
			for i, row := range tc.x {
				if got := s.Predict(row); got != tc.y[i] {
					t.Errorf("row %d: predicted %d, want %d", i, got, tc.y[i])
				}
			}
		})
	}
}

// TestSMOFitAllocsIndependentOfPasses checks that SMO allocates per fit,
// not per pass: more required quiet passes mean more optimisation passes
// over the same buffers, not more allocations.
func TestSMOFitAllocsIndependentOfPasses(t *testing.T) {
	x, y := goldenData(120, 5, 34)
	allocs := func(passes int) float64 {
		return testing.AllocsPerRun(3, func() {
			s := &SMO{Seed: 35, Passes: passes}
			if err := s.Fit(x, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(8); one != many {
		t.Errorf("allocations: %v at 1 pass, %v at 8 passes", one, many)
	}
}

// BenchmarkSMOFit fits SMO on a full default working set of 800 rows. Ten
// features keep one fit under a second; at 60 noisy features SMO needs tens
// of seconds to converge.
func BenchmarkSMOFit(b *testing.B) {
	x, y := goldenData(800, 10, 36)
	b.ReportAllocs()
	for b.Loop() {
		s := &SMO{Seed: 37}
		if err := s.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
