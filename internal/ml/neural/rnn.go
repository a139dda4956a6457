// Package neural implements the recurrent neural network classifier used in
// PatchDB's evaluation (Tables IV and VI): an Elman RNN over the abstracted
// token stream of a patch (keywords, identifiers, operators, ...), trained
// with backpropagation through time and Adagrad. The current state depends
// on the current input token and the previous state, so the model captures
// context information the statistical features cannot.
package neural

import (
	"fmt"
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
// uniform). Class weighting for imbalance is applied on top. It returns an
// error wrapping ml.ErrLengthMismatch when y, or a non-nil sampleW, does not
// have one entry per sequence.
func (r *RNN) FitTokensWeighted(seqs [][]string, y []int, sampleW []float64) error {
	if len(seqs) == 0 {
		return ml.ErrEmptyDataset
	}
	if len(y) != len(seqs) {
		return fmt.Errorf("neural: %d labels for %d sequences: %w", len(y), len(seqs), ml.ErrLengthMismatch)
	}
	if sampleW != nil && len(sampleW) != len(seqs) {
		return fmt.Errorf("neural: %d sample weights for %d sequences: %w", len(sampleW), len(seqs), ml.ErrLengthMismatch)
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
	sc := r.newScratch()
	for epoch := 0; epoch < r.Epochs; epoch++ {
		for _, i := range rng.Perm(len(encoded)) {
			w := 1.0
			if y[i] == 1 {
				w = posWeight
			}
			if sampleW != nil {
				w *= sampleW[i]
			}
			r.step(sc, encoded[i], float64(y[i]), w)
		}
	}
	return nil
}

// scratch holds every buffer a training step needs. FitTokensWeighted
// allocates one per fit, so step itself allocates nothing.
type scratch struct {
	hs         []float64 // (MaxLen+1) x Hidden states; row 0 stays zero
	dWxh       []float64 // Hidden x Embed
	dWhh       []float64 // Hidden x Hidden
	dBh, dWout []float64
	dh, nextDh []float64 // ping-pong dL/dh for BPTT
	dEmb       []float64 // vocab x Embed; nonzero only in touched rows
	touched    []int     // ids with a dEmb row this step, in backward-pass order
	seen       []bool    // seen[id] marks id as touched
}

func (r *RNN) newScratch() *scratch {
	h, e, v := r.Hidden, r.Embed, r.vocab.Size()
	return &scratch{
		hs:      make([]float64, (r.MaxLen+1)*h),
		dWxh:    make([]float64, h*e),
		dWhh:    make([]float64, h*h),
		dBh:     make([]float64, h),
		dWout:   make([]float64, h),
		dh:      make([]float64, h),
		nextDh:  make([]float64, h),
		dEmb:    make([]float64, v*e),
		touched: make([]int, 0, min(v, r.MaxLen)),
		seen:    make([]bool, v),
	}
}

// step runs one forward+BPTT pass and applies Adagrad updates. weight
// scales the loss gradient (class weighting). The scratch carries no state
// between steps: step zeroes every buffer it accumulates into, so reusing
// it changes no result.
func (r *RNN) step(sc *scratch, ids []int, target, weight float64) {
	if len(ids) == 0 {
		return
	}
	H, E := r.Hidden, r.Embed
	tlen := len(ids)
	for t, id := range ids {
		r.cell(sc.hs[(t+1)*H:][:H], sc.hs[t*H:][:H], r.emb[id])
	}
	last := sc.hs[tlen*H:][:H]
	z := r.bout
	for j := 0; j < H; j++ {
		z += r.wout[j] * last[j]
	}
	p := 1 / (1 + math.Exp(-z))
	dz := (p - target) * weight // dL/dz for weighted BCE

	// Output layer gradients.
	dh := sc.dh
	for j := 0; j < H; j++ {
		sc.dWout[j] = dz * last[j]
		dh[j] = dz * r.wout[j]
	}
	clear(sc.dWxh)
	clear(sc.dWhh)
	clear(sc.dBh)

	nextDh := sc.nextDh
	for t := tlen - 1; t >= 0; t-- {
		prev, h := sc.hs[t*H:][:H], sc.hs[(t+1)*H:][:H]
		id := ids[t]
		if !sc.seen[id] {
			sc.seen[id] = true
			sc.touched = append(sc.touched, id)
		}
		e, de := r.emb[id][:E], sc.dEmb[id*E:][:E]
		next := nextDh[:H]
		clear(next)
		for j := range h {
			g := dh[j] * (1 - h[j]*h[j])
			sc.dBh[j] += g
			wx, rwx := sc.dWxh[j*E:][:E], r.wxh[j][:E]
			for k := range wx {
				wx[k] += g * e[k]
				de[k] += g * rwx[k]
			}
			wh, rwh := sc.dWhh[j*H:][:H], r.whh[j][:H]
			for k := range wh {
				wh[k] += g * prev[k]
				next[k] += g * rwh[k]
			}
		}
		dh, nextDh = nextDh, dh
	}

	for j := 0; j < H; j++ {
		r.adagrad(r.wxh[j], sc.dWxh[j*E:][:E], r.gWxh[j])
		r.adagrad(r.whh[j], sc.dWhh[j*H:][:H], r.gWhh[j])
	}
	r.adagrad(r.bh, sc.dBh, r.gBh)
	r.adagrad(r.wout, sc.dWout, r.gWout)
	gb := r.clip(dz)
	r.gBout += gb * gb
	r.bout -= r.LR * gb / (math.Sqrt(r.gBout) + 1e-8)
	// Each id's update reads only its own row, so the touched order gives
	// the same weights as any other.
	for _, id := range sc.touched {
		de := sc.dEmb[id*E:][:E]
		r.adagrad(r.emb[id], de, r.gEmb[id])
		clear(de)
		sc.seen[id] = false
	}
	sc.touched = sc.touched[:0]
}

// cell computes one recurrent step, h = tanh(bh + wxh·e + whh·prev). Each
// unit's sum runs in a fixed order: bias, then the input terms, then the
// recurrent terms, each by ascending index. Four units are summed side by
// side; their sums are independent chains, so the interleaving hides add
// latency without reordering any sum.
func (r *RNN) cell(h, prev, e []float64) {
	e, prev = e[:r.Embed], prev[:len(h)]
	j := 0
	for ; j+4 <= len(h); j += 4 {
		s0, s1, s2, s3 := r.bh[j], r.bh[j+1], r.bh[j+2], r.bh[j+3]
		x0, x1, x2, x3 := r.wxh[j][:len(e)], r.wxh[j+1][:len(e)], r.wxh[j+2][:len(e)], r.wxh[j+3][:len(e)]
		for k, v := range e {
			s0 += x0[k] * v
			s1 += x1[k] * v
			s2 += x2[k] * v
			s3 += x3[k] * v
		}
		w0, w1, w2, w3 := r.whh[j][:len(prev)], r.whh[j+1][:len(prev)], r.whh[j+2][:len(prev)], r.whh[j+3][:len(prev)]
		for k, v := range prev {
			s0 += w0[k] * v
			s1 += w1[k] * v
			s2 += w2[k] * v
			s3 += w3[k] * v
		}
		h[j], h[j+1], h[j+2], h[j+3] = math.Tanh(s0), math.Tanh(s1), math.Tanh(s2), math.Tanh(s3)
	}
	for ; j < len(h); j++ {
		sum := r.bh[j]
		for k, w := range r.wxh[j][:len(e)] {
			sum += w * e[k]
		}
		for k, w := range r.whh[j][:len(prev)] {
			sum += w * prev[k]
		}
		h[j] = math.Tanh(sum)
	}
}

func (r *RNN) clip(g float64) float64 {
	if g > r.Clip {
		return r.Clip
	}
	if g < -r.Clip {
		return -r.Clip
	}
	return g
}

// adagrad applies one clipped Adagrad update of w by gradient g, with acc
// the running sum of squared gradients.
func (r *RNN) adagrad(w, g, acc []float64) {
	for j := range w {
		gj := r.clip(g[j])
		acc[j] += gj * gj
		w[j] -= r.LR * gj / (math.Sqrt(acc[j]) + 1e-8)
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
		r.cell(next, h, r.emb[id])
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
