package neural

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"patchdb/internal/ml"
)

func TestVocab(t *testing.T) {
	seqs := [][]string{{"a", "b", "a"}, {"a", "c"}}
	v := BuildVocab(seqs, 0)
	if v.Size() != 4 { // <unk> + a,b,c
		t.Fatalf("size = %d", v.Size())
	}
	if v.ID("a") == 0 || v.ID("zzz") != 0 {
		t.Errorf("ids: a=%d zzz=%d", v.ID("a"), v.ID("zzz"))
	}
	// Most frequent token gets the smallest non-unk id.
	if v.ID("a") != 1 {
		t.Errorf("most frequent token id = %d", v.ID("a"))
	}
	enc := v.Encode([]string{"a", "zzz", "c"})
	if enc[0] != v.ID("a") || enc[1] != 0 || enc[2] != v.ID("c") {
		t.Errorf("encode = %v", enc)
	}
}

func TestVocabMaxSize(t *testing.T) {
	seqs := [][]string{{"a", "a", "b", "b", "c"}}
	v := BuildVocab(seqs, 2)
	if v.Size() != 3 { // <unk> + 2 kept
		t.Fatalf("size = %d", v.Size())
	}
	if v.ID("c") != 0 {
		t.Error("least frequent token survived the cap")
	}
}

// TestVocabOrder pins the vocabulary order: frequency descending, ties by
// word ascending, truncated to maxSize after sorting.
func TestVocabOrder(t *testing.T) {
	seqs := [][]string{
		{"if", "x", "(", "x", ")", "y"},
		{"x", "y", "z", "(", "if"},
		{"b", "a", "c"},
	}
	// Frequencies: x=3; if=2 (=2 y=2; )=1 a=1 b=1 c=1 z=1.
	for _, tc := range []struct {
		maxSize int
		want    []string
	}{
		{0, []string{"<unk>", "x", "(", "if", "y", ")", "a", "b", "c", "z"}},
		{4, []string{"<unk>", "x", "(", "if", "y"}},
		{6, []string{"<unk>", "x", "(", "if", "y", ")", "a"}},
		{20, []string{"<unk>", "x", "(", "if", "y", ")", "a", "b", "c", "z"}},
		{1, []string{"<unk>", "x"}},
	} {
		v := BuildVocab(seqs, tc.maxSize)
		if !reflect.DeepEqual(v.words, tc.want) {
			t.Errorf("maxSize %d: words = %q, want %q", tc.maxSize, v.words, tc.want)
		}
		for id, w := range tc.want {
			if v.ID(w) != id {
				t.Errorf("maxSize %d: ID(%q) = %d, want %d", tc.maxSize, w, v.ID(w), id)
			}
		}
	}
	if v := BuildVocab(nil, 0); !reflect.DeepEqual(v.words, []string{"<unk>"}) {
		t.Errorf("empty input: words = %q", v.words)
	}
}

func TestVocabDeterminism(t *testing.T) {
	seqs := [][]string{{"x", "y"}, {"z", "y"}}
	v1 := BuildVocab(seqs, 0)
	v2 := BuildVocab(seqs, 0)
	for _, w := range []string{"x", "y", "z"} {
		if v1.ID(w) != v2.ID(w) {
			t.Fatalf("unstable id for %q", w)
		}
	}
}

// markerTask builds sequences where the label depends on whether the marker
// token appears — the simplest context task an RNN must solve.
func markerTask(n int, seed int64) ([][]string, []int) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"if", "(", ")", "VAR", "NUM", ";", "return"}
	seqs := make([][]string, n)
	y := make([]int, n)
	for i := range seqs {
		ln := 5 + rng.Intn(10)
		seq := make([]string, ln)
		for j := range seq {
			seq[j] = words[rng.Intn(len(words))]
		}
		if i%2 == 0 {
			seq[rng.Intn(ln)] = "MARKER"
			y[i] = 1
		}
		seqs[i] = seq
	}
	return seqs, y
}

func TestRNNLearnsMarker(t *testing.T) {
	seqs, y := markerTask(400, 1)
	r := &RNN{Epochs: 12, Seed: 2}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	testSeqs, testY := markerTask(200, 3)
	hits := 0
	for i, s := range testSeqs {
		if r.PredictTokens(s) == testY[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(testSeqs)); acc < 0.9 {
		t.Errorf("marker-task accuracy = %.2f", acc)
	}
}

func TestRNNOrderSensitivity(t *testing.T) {
	// Label depends on whether "A" precedes "B": requires recurrent state,
	// not just bag-of-tokens.
	rng := rand.New(rand.NewSource(4))
	gen := func(n int) ([][]string, []int) {
		seqs := make([][]string, n)
		y := make([]int, n)
		for i := range seqs {
			filler := make([]string, 3+rng.Intn(5))
			for j := range filler {
				filler[j] = "x"
			}
			if i%2 == 0 {
				seqs[i] = append(append([]string{"A"}, filler...), "B")
				y[i] = 1
			} else {
				seqs[i] = append(append([]string{"B"}, filler...), "A")
			}
		}
		return seqs, y
	}
	seqs, y := gen(400)
	r := &RNN{Epochs: 25, Seed: 5, Hidden: 16, Embed: 8}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	testSeqs, testY := gen(200)
	hits := 0
	for i, s := range testSeqs {
		if r.PredictTokens(s) == testY[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(testSeqs)); acc < 0.85 {
		t.Errorf("order-task accuracy = %.2f (bag-of-tokens cannot exceed 0.5)", acc)
	}
}

func TestRNNEmpty(t *testing.T) {
	r := &RNN{}
	if err := r.FitTokens(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
		t.Errorf("err = %v", err)
	}
	if r.ProbaTokens([]string{"a"}) != 0 {
		t.Error("unfit proba != 0")
	}
}

func TestRNNEmptySequence(t *testing.T) {
	seqs, y := markerTask(50, 6)
	seqs = append(seqs, nil) // an empty sequence must not panic
	y = append(y, 0)
	r := &RNN{Epochs: 2, Seed: 7}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	_ = r.ProbaTokens(nil)
}

func TestRNNTruncation(t *testing.T) {
	long := make([]string, 5000)
	for i := range long {
		long[i] = "x"
	}
	r := &RNN{Epochs: 1, Seed: 8, MaxLen: 32}
	if err := r.FitTokens([][]string{long, {"MARKER"}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	_ = r.ProbaTokens(long) // must not blow up on long input
}

func TestRNNDeterminism(t *testing.T) {
	seqs, y := markerTask(100, 9)
	r1 := &RNN{Epochs: 3, Seed: 10}
	r2 := &RNN{Epochs: 3, Seed: 10}
	if err := r1.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	if err := r2.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs[:20] {
		if r1.ProbaTokens(s) != r2.ProbaTokens(s) {
			t.Fatal("same seed, different model")
		}
	}
}

func TestRNNWeightedSamples(t *testing.T) {
	// Zero-weighted contradictory samples must not prevent learning.
	seqs, y := markerTask(200, 11)
	flipped := make([]int, len(y))
	for i, v := range y {
		flipped[i] = 1 - v
	}
	all := append(append([][]string{}, seqs...), seqs...)
	labels := append(append([]int{}, y...), flipped...)
	weights := make([]float64, len(all))
	for i := range weights {
		if i < len(seqs) {
			weights[i] = 1
		} // flipped copies get weight 0
	}
	r := &RNN{Epochs: 10, Seed: 12}
	if err := r.FitTokensWeighted(all, labels, weights); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, s := range seqs {
		if r.PredictTokens(s) == y[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(seqs)); acc < 0.85 {
		t.Errorf("weighted training accuracy = %.2f", acc)
	}
}

// TestRNNGolden pins every trained weight and Adagrad accumulator, and the
// probabilities over the training sequences, bit for bit. The training set
// has non-uniform sample weights, an empty sequence and one longer than
// MaxLen; the second model's hidden width is not a multiple of four. The
// digests were recorded on amd64; platforms that fuse multiply-adds may
// round differently.
func TestRNNGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	seqs, y := markerTask(80, 13)
	long := make([]string, 70)
	for i := range long {
		long[i] = []string{"VAR", "MARKER", "(", "NUM"}[i%4]
	}
	seqs = append(seqs, nil, long)
	y = append(y, 0, 1)
	w := make([]float64, len(seqs))
	for i := range w {
		w[i] = 0.25 + float64(i%5)*0.375
	}
	for _, tc := range []struct {
		hidden, embed int
		want          string
	}{
		{12, 6, "6e0e930d956ac0b05c8b61f84f6fb84b5082f21c21e68660ed9d5bddd063cef9"},
		{13, 5, "813fa48c10fb2b1c8b5e138753ab50ffe0475e578ad6571bf006bbe018cbd5a9"},
	} {
		r := &RNN{Epochs: 3, Seed: 14, MaxLen: 40, Hidden: tc.hidden, Embed: tc.embed}
		if err := r.FitTokensWeighted(seqs, y, w); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		put := func(vs ...float64) {
			var buf [8]byte
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		for _, m := range [][][]float64{r.emb, r.wxh, r.whh, r.gEmb, r.gWxh, r.gWhh} {
			for _, row := range m {
				put(row...)
			}
		}
		put(r.bh...)
		put(r.wout...)
		put(r.gBh...)
		put(r.gWout...)
		put(r.bout, r.gBout)
		for _, s := range seqs {
			put(r.ProbaTokens(s))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("hidden %d: digest = %s, want %s", tc.hidden, got, tc.want)
		}
	}
}

func TestRNNLengthMismatch(t *testing.T) {
	seqs, y := markerTask(10, 15)
	for _, tc := range []struct {
		name string
		y    []int
		w    []float64
	}{
		{"short labels", y[:9], nil},
		{"long labels", append(y, 1), nil},
		{"short weights", y, make([]float64, 9)},
		{"long weights", y, make([]float64, 11)},
	} {
		r := &RNN{Epochs: 1, Seed: 16}
		if err := r.FitTokensWeighted(seqs, tc.y, tc.w); !errors.Is(err, ml.ErrLengthMismatch) {
			t.Errorf("%s: err = %v, want ErrLengthMismatch", tc.name, err)
		}
	}
}

// TestRNNStepAllocsZero checks that a training step allocates nothing once
// the per-fit scratch exists, for a sequence as long as MaxLen.
func TestRNNStepAllocsZero(t *testing.T) {
	seqs, y := markerTask(40, 17)
	r := &RNN{Epochs: 1, Seed: 18, MaxLen: 12}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	sc := r.newScratch()
	ids := r.vocab.Encode(seqs[0])
	for len(ids) < r.MaxLen {
		ids = append(ids, ids...)
	}
	ids = ids[:r.MaxLen]
	if n := testing.AllocsPerRun(50, func() { r.step(sc, ids, 1, 0.5) }); n != 0 {
		t.Errorf("step allocates %v times, want 0", n)
	}
}

// TestRNNFitAllocsPerEpoch checks that an extra epoch costs at most its
// shuffle permutation: training allocates per fit, not per sample.
func TestRNNFitAllocsPerEpoch(t *testing.T) {
	seqs, y := markerTask(60, 19)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(3, func() {
			r := &RNN{Epochs: epochs, Seed: 20}
			if err := r.FitTokens(seqs, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, five := allocs(1), allocs(5)
	if perEpoch := (five - one) / 4; perEpoch > 1 {
		t.Errorf("allocations: %v at 1 epoch, %v at 5 (%.1f per extra epoch, want <= 1)", one, five, perEpoch)
	}
}

// BenchmarkRNNFit trains at the reproduction's model size (the default 16
// embedding and 24 hidden units) on 400 sequences of 20 to 199 tokens,
// truncated at the default MaxLen of 160.
func BenchmarkRNNFit(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	words := []string{"if", "(", ")", "VAR", "NUM", ";", "return", "FUNC", "{", "}", "MARKER"}
	seqs := make([][]string, 400)
	y := make([]int, len(seqs))
	steps := 0
	for i := range seqs {
		seqs[i] = make([]string, 20+rng.Intn(180))
		for j := range seqs[i] {
			seqs[i][j] = words[rng.Intn(len(words))]
		}
		y[i] = i % 2
		steps += min(len(seqs[i]), 160)
	}
	b.ReportAllocs()
	for b.Loop() {
		r := &RNN{Epochs: 2, Seed: 22}
		if err := r.FitTokens(seqs, y); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*steps), "ns/step")
}
