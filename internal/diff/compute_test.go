package diff

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// goldenPairs is a seeded set of old/new file pairs that exercises every
// branch of Myers's tie-breaking: small and large edit distances, pure
// insertions and deletions, empty sides, and texts built from a handful of
// repeated lines, where many edit scripts of the same length exist.
func goldenPairs() [][2]string {
	rng := rand.New(rand.NewSource(11))
	repeated := []string{"}", "", "return 0;", "}"}
	words := []string{"int x;", "y++;", "call(a, b);", "// c", "if (x) {", "}", "", "break;"}
	gen := func(n int, vocab []string) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = vocab[rng.Intn(len(vocab))]
		}
		return lines
	}
	unique := func(n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf("stmt_%d(%d);", i, rng.Intn(1000))
		}
		return lines
	}
	// edit applies k random single-line edits (replace, insert or delete).
	edit := func(lines []string, k int, vocab []string) []string {
		out := append([]string(nil), lines...)
		for range k {
			i := rng.Intn(len(out) + 1)
			switch op := rng.Intn(3); {
			case op == 0 && i < len(out):
				out[i] = vocab[rng.Intn(len(vocab))]
			case op == 1 || i == len(out):
				out = append(out[:i], append([]string{vocab[rng.Intn(len(vocab))]}, out[i:]...)...)
			default:
				out = append(out[:i], out[i+1:]...)
			}
		}
		return out
	}
	// subset keeps each line with probability 1/2: the pair (subset, all)
	// is a pure insertion and (all, subset) a pure deletion.
	subset := func(lines []string) []string {
		var out []string
		for _, l := range lines {
			if rng.Intn(2) == 0 {
				out = append(out, l)
			}
		}
		return out
	}
	text := func(lines []string) string {
		if len(lines) == 0 {
			return ""
		}
		return strings.Join(lines, "\n") + "\n"
	}

	var pairs [][2]string
	add := func(a, b []string) { pairs = append(pairs, [2]string{text(a), text(b)}) }
	add(nil, nil)
	add(nil, gen(7, words))
	add(gen(9, words), nil)
	add(gen(1, repeated), gen(1, repeated))
	for range 12 {
		a := gen(5+rng.Intn(60), words)
		add(a, edit(a, 1+rng.Intn(4), words)) // small D
		add(a, gen(5+rng.Intn(60), words))    // large D: unrelated texts
		r := gen(10+rng.Intn(50), repeated)
		add(r, edit(r, 1+rng.Intn(8), repeated)) // repeated lines, many ties
		add(r, gen(10+rng.Intn(50), repeated))
		s := subset(a)
		add(s, a) // pure insertion
		add(a, s) // pure deletion
	}
	for range 3 {
		u := unique(300 + rng.Intn(300))
		add(u, edit(u, 10+rng.Intn(20), words))
	}
	return pairs
}

// TestComputeGolden pins the exact edit scripts Compute chooses, through
// their formatted diffs, so an optimisation of the Myers kernel must make
// every tie-breaking choice the old one made.
func TestComputeGolden(t *testing.T) {
	h := sha256.New()
	for i, pr := range goldenPairs() {
		for _, ctx := range []int{0, 3} {
			p := ComputePatch(fmt.Sprintf("c%03d", i), "m",
				map[string]string{"f.c": pr[0]}, map[string]string{"f.c": pr[1]}, ctx)
			h.Write([]byte(Format(p)))
		}
	}
	const want = "dafd0cc54664f9f66dca1f98a7511ba13fdfce44b374e3fe23246a51f71669f0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// scatteredEdit is a 4,000-line file and a copy with 40 one-line edits
// spread evenly through it: an edit distance of 80 over 8,000 lines.
func scatteredEdit() (oldText, newText string) {
	lines := make([]string, 4000)
	for i := range lines {
		lines[i] = fmt.Sprintf("\tvalue_%d = compute(%d);", i, i%17)
	}
	oldText = strings.Join(lines, "\n") + "\n"
	for i := 50; i < len(lines); i += 100 {
		lines[i] = fmt.Sprintf("\tvalue_%d = checked(%d);", i, i%17)
	}
	return oldText, strings.Join(lines, "\n") + "\n"
}

// TestComputeAllocBound keeps the Myers trace to the diagonals it reads: a
// copy of the whole state vector per edit distance allocated ~11.6 MB here.
func TestComputeAllocBound(t *testing.T) {
	oldText, newText := scatteredEdit()
	res := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			Compute("f.c", oldText, newText, 3)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 2<<20 {
		t.Errorf("Compute allocated %d bytes per call, want < 2 MiB", got)
	}
}
