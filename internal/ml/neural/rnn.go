// Package neural implements the recurrent neural network classifier used in
// PatchDB's evaluation (Tables IV and VI): an Elman RNN over the abstracted
// token stream of a patch (keywords, identifiers, operators, ...), trained
// with backpropagation through time and Adagrad. The current state depends
// on the current input token and the previous state, so the model captures
// context information the statistical features cannot.
package neural

import (
	"math"
	"math/rand"
	"sort"

	"patchdb/internal/ml"
)

// Vocab maps token strings to dense ids. Id 0 is reserved for unknown
// tokens.
type Vocab struct {
	index map[string]int
	words []string
}

// BuildVocab builds a vocabulary from token sequences, keeping the maxSize
// most frequent tokens (0 means unlimited).
func BuildVocab(seqs [][]string, maxSize int) *Vocab {
	freq := make(map[string]int)
	for _, seq := range seqs {
		for _, w := range seq {
			freq[w]++
		}
	}
	words := make([]string, 0, len(freq))
	for w := range freq {
		words = append(words, w)
	}
	// Sort by frequency desc, then lexicographically for determinism. The
	// words are unique, so this is a strict total order.
	sort.Slice(words, func(i, j int) bool {
		if fi, fj := freq[words[i]], freq[words[j]]; fi != fj {
			return fi > fj
		}
		return words[i] < words[j]
	})
	if maxSize > 0 && len(words) > maxSize {
		words = words[:maxSize]
	}
	v := &Vocab{index: make(map[string]int, len(words)+1), words: append([]string{"<unk>"}, words...)}
	for i, w := range v.words {
		v.index[w] = i
	}
	return v
}

// Size returns the vocabulary size including <unk>.
func (v *Vocab) Size() int { return len(v.words) }

// ID returns the id of a token (0 for unknown).
func (v *Vocab) ID(w string) int { return v.index[w] }

// Encode maps a token sequence to ids.
func (v *Vocab) Encode(seq []string) []int {
	out := make([]int, len(seq))
	for i, w := range seq {
		out[i] = v.index[w]
	}
	return out
}

// RNN is an Elman recurrent network for binary sequence classification.
type RNN struct {
	// Embed is the embedding width (default 16).
	Embed int
	// Hidden is the recurrent state width (default 24).
	Hidden int
	// Epochs over the training set (default 4).
	Epochs int
	// LR is the Adagrad base learning rate (default 0.05).
	LR float64
	// MaxLen truncates sequences (default 160 tokens).
	MaxLen int
	// Clip bounds gradient magnitude per parameter (default 5).
	Clip float64
	// Seed drives initialization and shuffling.
	Seed int64

	vocab *Vocab

	emb  [][]float64 // vocab x embed
	wxh  [][]float64 // hidden x embed
	whh  [][]float64 // hidden x hidden
	bh   []float64
	wout []float64
	bout float64

	// Adagrad accumulators, same shapes.
	gEmb  [][]float64
	gWxh  [][]float64
	gWhh  [][]float64
	gBh   []float64
	gWout []float64
	gBout float64
}

func (r *RNN) defaults() {
	if r.Embed <= 0 {
		r.Embed = 16
	}
	if r.Hidden <= 0 {
		r.Hidden = 24
	}
	if r.Epochs <= 0 {
		r.Epochs = 4
	}
	if r.LR <= 0 {
		r.LR = 0.05
	}
	if r.MaxLen <= 0 {
		r.MaxLen = 160
	}
	if r.Clip <= 0 {
		r.Clip = 5
	}
}

func newMatrix(rows, cols int, scale float64, rng *rand.Rand) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = (rng.Float64()*2 - 1) * scale
		}
	}
	return m
}

// FitTokens trains the network on token sequences with labels.
func (r *RNN) FitTokens(seqs [][]string, y []int) error {
	return r.FitTokensWeighted(seqs, y, nil)
}

// FitTokensWeighted trains with optional per-sample loss weights (nil means
// uniform). Class weighting for imbalance is applied on top.
func (r *RNN) FitTokensWeighted(seqs [][]string, y []int, sampleW []float64) error {
	if len(seqs) == 0 {
		return ml.ErrEmptyDataset
	}
	r.defaults()
	rng := rand.New(rand.NewSource(r.Seed + 101))
	r.vocab = BuildVocab(seqs, 2000)
	v := r.vocab.Size()
	r.emb = newMatrix(v, r.Embed, 0.1, rng)
	r.wxh = newMatrix(r.Hidden, r.Embed, 0.2, rng)
	r.whh = newMatrix(r.Hidden, r.Hidden, 0.2, rng)
	r.bh = make([]float64, r.Hidden)
	r.wout = make([]float64, r.Hidden)
	for j := range r.wout {
		r.wout[j] = (rng.Float64()*2 - 1) * 0.2
	}
	r.gEmb = newMatrix(v, r.Embed, 0, rng)
	r.gWxh = newMatrix(r.Hidden, r.Embed, 0, rng)
	r.gWhh = newMatrix(r.Hidden, r.Hidden, 0, rng)
	r.gBh = make([]float64, r.Hidden)
	r.gWout = make([]float64, r.Hidden)

	encoded := make([][]int, len(seqs))
	pos := 0
	for i, s := range seqs {
		ids := r.vocab.Encode(s)
		if len(ids) > r.MaxLen {
			ids = ids[:r.MaxLen]
		}
		encoded[i] = ids
		pos += y[i]
	}
	// Weight the minority class so imbalanced training sets (e.g. with 2-3x
	// synthetic non-security patches) do not collapse to the majority label.
	posWeight := 1.0
	if pos > 0 && pos < len(y) {
		posWeight = float64(len(y)-pos) / float64(pos)
		if posWeight < 0.25 {
			posWeight = 0.25
		}
		if posWeight > 4 {
			posWeight = 4
		}
	}
	for epoch := 0; epoch < r.Epochs; epoch++ {
		for _, i := range rng.Perm(len(encoded)) {
			w := 1.0
			if y[i] == 1 {
				w = posWeight
			}
			if sampleW != nil {
				w *= sampleW[i]
			}
			r.step(encoded[i], float64(y[i]), w)
		}
	}
	return nil
}

// step runs one forward+BPTT pass and applies Adagrad updates. weight
// scales the loss gradient (class weighting).
func (r *RNN) step(ids []int, target, weight float64) {
	if len(ids) == 0 {
		return
	}
	tlen := len(ids)
	hs := make([][]float64, tlen+1)
	hs[0] = make([]float64, r.Hidden)
	raw := make([][]float64, tlen) // pre-activation, for tanh'
	for t, id := range ids {
		h := make([]float64, r.Hidden)
		e := r.emb[id]
		prev := hs[t]
		for j := 0; j < r.Hidden; j++ {
			sum := r.bh[j]
			wx := r.wxh[j]
			for k := 0; k < r.Embed; k++ {
				sum += wx[k] * e[k]
			}
			wh := r.whh[j]
			for k := 0; k < r.Hidden; k++ {
				sum += wh[k] * prev[k]
			}
			h[j] = math.Tanh(sum)
		}
		raw[t] = h
		hs[t+1] = h
	}
	last := hs[tlen]
	z := r.bout
	for j := 0; j < r.Hidden; j++ {
		z += r.wout[j] * last[j]
	}
	p := 1 / (1 + math.Exp(-z))
	dz := (p - target) * weight // dL/dz for weighted BCE

	// Output layer gradients.
	dWout := make([]float64, r.Hidden)
	dh := make([]float64, r.Hidden)
	for j := 0; j < r.Hidden; j++ {
		dWout[j] = dz * last[j]
		dh[j] = dz * r.wout[j]
	}

	dWxh := make([][]float64, r.Hidden)
	dWhh := make([][]float64, r.Hidden)
	for j := range dWxh {
		dWxh[j] = make([]float64, r.Embed)
		dWhh[j] = make([]float64, r.Hidden)
	}
	dBh := make([]float64, r.Hidden)
	dEmb := make(map[int][]float64)

	for t := tlen - 1; t >= 0; t-- {
		h := hs[t+1]
		prev := hs[t]
		e := r.emb[ids[t]]
		dRaw := make([]float64, r.Hidden)
		for j := 0; j < r.Hidden; j++ {
			dRaw[j] = dh[j] * (1 - h[j]*h[j])
		}
		de, ok := dEmb[ids[t]]
		if !ok {
			de = make([]float64, r.Embed)
			dEmb[ids[t]] = de
		}
		nextDh := make([]float64, r.Hidden)
		for j := 0; j < r.Hidden; j++ {
			g := dRaw[j]
			dBh[j] += g
			wx := dWxh[j]
			for k := 0; k < r.Embed; k++ {
				wx[k] += g * e[k]
				de[k] += g * r.wxh[j][k]
			}
			wh := dWhh[j]
			for k := 0; k < r.Hidden; k++ {
				wh[k] += g * prev[k]
				nextDh[k] += g * r.whh[j][k]
			}
		}
		dh = nextDh
	}

	clip := func(g float64) float64 {
		if g > r.Clip {
			return r.Clip
		}
		if g < -r.Clip {
			return -r.Clip
		}
		return g
	}
	adagrad := func(w, g []float64, acc []float64) {
		for j := range w {
			gj := clip(g[j])
			acc[j] += gj * gj
			w[j] -= r.LR * gj / (math.Sqrt(acc[j]) + 1e-8)
		}
	}
	for j := 0; j < r.Hidden; j++ {
		adagrad(r.wxh[j], dWxh[j], r.gWxh[j])
		adagrad(r.whh[j], dWhh[j], r.gWhh[j])
	}
	adagrad(r.bh, dBh, r.gBh)
	adagrad(r.wout, dWout, r.gWout)
	gb := clip(dz)
	r.gBout += gb * gb
	r.bout -= r.LR * gb / (math.Sqrt(r.gBout) + 1e-8)
	for id, de := range dEmb {
		adagrad(r.emb[id], de, r.gEmb[id])
	}
}

// ProbaTokens returns P(security) for a token sequence.
func (r *RNN) ProbaTokens(seq []string) float64 {
	if r.vocab == nil {
		return 0
	}
	ids := r.vocab.Encode(seq)
	if len(ids) > r.MaxLen {
		ids = ids[:r.MaxLen]
	}
	h := make([]float64, r.Hidden)
	next := make([]float64, r.Hidden)
	for _, id := range ids {
		e := r.emb[id]
		for j := 0; j < r.Hidden; j++ {
			sum := r.bh[j]
			wx := r.wxh[j]
			for k := 0; k < r.Embed; k++ {
				sum += wx[k] * e[k]
			}
			wh := r.whh[j]
			for k := 0; k < r.Hidden; k++ {
				sum += wh[k] * h[k]
			}
			next[j] = math.Tanh(sum)
		}
		h, next = next, h
	}
	z := r.bout
	for j := 0; j < r.Hidden; j++ {
		z += r.wout[j] * h[j]
	}
	return 1 / (1 + math.Exp(-z))
}

// PredictTokens thresholds ProbaTokens at 0.5.
func (r *RNN) PredictTokens(seq []string) int {
	if r.ProbaTokens(seq) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}
