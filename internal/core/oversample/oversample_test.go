package oversample

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"patchdb/internal/cast"
	"patchdb/internal/diff"
	"patchdb/internal/gitrepo"
)

const beforeSrc = `#include <string.h>

int copy_frame(char *dst, const char *src, int len)
{
	int ret = 0;
	memcpy(dst, src, len);
	ret = len;
	return ret;
}
`

const afterSrc = `#include <string.h>

int copy_frame(char *dst, const char *src, int len)
{
	int ret = 0;
	if (len < 0 || len > 4096)
		return -1;
	memcpy(dst, src, len);
	ret = len;
	return ret;
}
`

func locateIf(t *testing.T, src string) *cast.IfStmt {
	t.Helper()
	f, err := cast.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := f.IfStmts()
	if len(ifs) == 0 {
		t.Fatal("no if statement")
	}
	return ifs[0]
}

func TestApplyVariantAll(t *testing.T) {
	wantSnippets := map[Variant][]string{
		VariantZeroOr:    {"const int _SYS_ZERO = 0;", "_SYS_ZERO || (len < 0 || len > 4096)"},
		VariantOneAnd:    {"const int _SYS_ONE = 1;", "_SYS_ONE && (len < 0 || len > 4096)"},
		VariantBoolEq:    {"int _SYS_STMT = (len < 0 || len > 4096);", "if (1 == _SYS_STMT)"},
		VariantBoolNeg:   {"int _SYS_STMT = !(len < 0 || len > 4096);", "if (!_SYS_STMT)"},
		VariantFlagSet:   {"int _SYS_VAL = 0;", "{ _SYS_VAL = 1; }", "if (_SYS_VAL)"},
		VariantFlagClear: {"int _SYS_VAL = 1;", "{ _SYS_VAL = 0; }", "if (!_SYS_VAL)"},
		VariantFlagAnd:   {"if (_SYS_VAL && (len < 0 || len > 4096))"},
		VariantFlagOr:    {"if (!_SYS_VAL || (len < 0 || len > 4096))"},
	}
	for v := Variant(1); v <= NumVariants; v++ {
		t.Run(v.String(), func(t *testing.T) {
			ifStmt := locateIf(t, afterSrc)
			got, err := ApplyVariant(afterSrc, ifStmt, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, snippet := range wantSnippets[v] {
				if !strings.Contains(got, snippet) {
					t.Errorf("variant %v output missing %q:\n%s", v, snippet, got)
				}
			}
			// The transformed source must still parse.
			if _, err := cast.Parse(got); err != nil {
				t.Errorf("variant %v output unparseable: %v", v, err)
			}
			// The original statement body is preserved.
			if !strings.Contains(got, "return -1;") {
				t.Errorf("variant %v lost the guarded body", v)
			}
		})
	}
}

func TestApplyVariantPreservesIndent(t *testing.T) {
	ifStmt := locateIf(t, afterSrc)
	got, err := ApplyVariant(afterSrc, ifStmt, VariantZeroOr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "\tconst int _SYS_ZERO = 0;\n\tif (") {
		t.Errorf("declaration not indented like the if:\n%s", got)
	}
}

func TestApplyVariantErrors(t *testing.T) {
	if _, err := ApplyVariant("x", nil, VariantZeroOr); !errors.Is(err, ErrNoIfStatement) {
		t.Errorf("nil ifStmt err = %v", err)
	}
	ifStmt := locateIf(t, afterSrc)
	if _, err := ApplyVariant(afterSrc, ifStmt, Variant(99)); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestSynthesizeAfterSide(t *testing.T) {
	before := map[string]string{"src/copy.c": beforeSrc}
	after := map[string]string{"src/copy.c": afterSrc}
	ov := &Oversampler{Sides: []Side{ModifyAfter}}
	syns, err := ov.Synthesize("cafe01", before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(syns) != NumVariants {
		t.Fatalf("synthetics = %d, want %d", len(syns), NumVariants)
	}
	for _, s := range syns {
		// Each synthetic patch must still contain the original fix AND the
		// variant boilerplate (merged modifications).
		text := diff.Format(s.Patch)
		if !strings.Contains(text, "_SYS") {
			t.Errorf("variant %v patch lacks boilerplate:\n%s", s.Variant, text)
		}
		// Applying the synthetic patch to the BEFORE file must reproduce the
		// mutated AFTER version exactly (patch validity).
		got, err := diff.Apply(beforeSrc, s.Patch.Files[0])
		if err != nil {
			t.Fatalf("variant %v patch does not apply: %v\n%s", s.Variant, err, text)
		}
		if _, err := cast.Parse(got); err != nil {
			t.Errorf("variant %v applied result unparseable: %v", s.Variant, err)
		}
		if !strings.Contains(got, "if (") {
			t.Errorf("variant %v applied result lost conditionals", s.Variant)
		}
	}
}

func TestSynthesizeBeforeSide(t *testing.T) {
	// The BEFORE version has no if statement, so ModifyBefore yields nothing
	// for this patch — exactly the paper's observation that only patches
	// touching conditionals can be oversampled on that side.
	before := map[string]string{"src/copy.c": beforeSrc}
	after := map[string]string{"src/copy.c": afterSrc}
	ov := &Oversampler{Sides: []Side{ModifyBefore}}
	syns, err := ov.Synthesize("cafe02", before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(syns) != 0 {
		t.Errorf("before-side synthetics = %d, want 0 (no if pre-patch)", len(syns))
	}

	// Now a patch that MODIFIES an existing if: both sides produce variants.
	b2 := strings.Replace(afterSrc, "len > 4096", "len > 1024", 1)
	ov2 := &Oversampler{}
	syns2, err := ov2.Synthesize("cafe03", map[string]string{"src/copy.c": b2}, map[string]string{"src/copy.c": afterSrc})
	if err != nil {
		t.Fatal(err)
	}
	var beforeCount, afterCount int
	for _, s := range syns2 {
		if s.Side == ModifyBefore {
			beforeCount++
		} else {
			afterCount++
		}
	}
	if beforeCount == 0 || afterCount == 0 {
		t.Errorf("sides = before:%d after:%d, want both > 0", beforeCount, afterCount)
	}
	// Before-side synthetic patches must apply to the MUTATED before, i.e.
	// they are patches from before' to after; validate via re-parse.
	for _, s := range syns2 {
		if len(s.Patch.Files) == 0 {
			t.Fatalf("empty synthetic patch for side %v", s.Side)
		}
	}
}

func TestSynthesizeMaxPerPatch(t *testing.T) {
	before := map[string]string{"src/copy.c": beforeSrc}
	after := map[string]string{"src/copy.c": afterSrc}
	ov := &Oversampler{MaxPerPatch: 3}
	syns, err := ov.Synthesize("cafe04", before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(syns) != 3 {
		t.Errorf("capped synthetics = %d, want 3", len(syns))
	}
}

func TestSynthesizeShuffleDiversity(t *testing.T) {
	before := map[string]string{"src/copy.c": beforeSrc}
	after := map[string]string{"src/copy.c": afterSrc}
	ov := &Oversampler{MaxPerPatch: 4, Rand: rand.New(rand.NewSource(5))}
	syns, err := ov.Synthesize("cafe05", before, after)
	if err != nil {
		t.Fatal(err)
	}
	// With shuffling, the first 4 must not always be variants 1-4 in order.
	inOrder := true
	for i, s := range syns {
		if s.Variant != Variant(i+1) {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("shuffled synthesis returned the deterministic prefix")
	}
}

// TestPlanPhasesMatchSynthesize checks the contract concurrent callers rely
// on: planning and realizing draw no randomness and do not depend on other
// patches, so planning every patch first, shuffling the plans in patch order
// and realizing them in any order gives what sequential Synthesize calls
// sharing one generator give.
func TestPlanPhasesMatchSynthesize(t *testing.T) {
	type patch struct{ before, after map[string]string }
	var patches []patch
	for i := range 4 {
		patches = append(patches, patch{
			map[string]string{"src/copy.c": beforeSrc, "README.md": strings.Repeat("#\n", i)},
			map[string]string{"src/copy.c": afterSrc},
		})
	}
	patches = append(patches, patch{ // no if statement touched: no draws
		map[string]string{"README.md": "# old\n"}, map[string]string{"README.md": "# new\n"}})
	hash := func(i int) string { return "cafe1" + strconv.Itoa(i) }

	ov := &Oversampler{MaxPerPatch: 3, Rand: rand.New(rand.NewSource(9))}
	var want [][]*Synthetic
	for i, p := range patches {
		syns, err := ov.Synthesize(hash(i), p.before, p.after)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, syns)
	}

	phased := &Oversampler{MaxPerPatch: 3}
	plans := make([]*Plan, len(patches))
	for i := len(patches) - 1; i >= 0; i-- {
		base := diff.ComputePatch(hash(i), "", patches[i].before, patches[i].after, 3)
		plans[i] = phased.Plan(base, patches[i].before, patches[i].after)
	}
	rng := rand.New(rand.NewSource(9))
	for _, p := range plans {
		p.Shuffle(rng)
	}
	got := make([][]*Synthetic, len(plans))
	for i := len(plans) - 1; i >= 0; i-- {
		got[i] = plans[i].Realize()
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("phased synthesis differs from sequential Synthesize calls")
	}
}

// TestPlanFromCommitPatch checks the equality Build relies on: a commit's
// cached Patch (context 3, carrying the commit message and author) plans
// exactly the candidates of a fresh diff at the default context.
func TestPlanFromCommitPatch(t *testing.T) {
	repo := gitrepo.NewRepo("acme/frames")
	repo.SeedFile("src/copy.c", beforeSrc)
	repo.SeedFile("README.md", "# frames\n")
	c := repo.Commit("Ann Author", "2020-01-02", "Bound the frame copy\n\nCVE-2020-0001",
		map[string]string{"src/copy.c": afterSrc, "README.md": "# frames, bounded\n"})

	ov := &Oversampler{}
	fromCommit := ov.Plan(c.Patch(), c.Before, c.After)
	fromDiff := ov.Plan(diff.ComputePatch(c.Hash, "", c.Before, c.After, 3), c.Before, c.After)
	if len(fromCommit.combos) == 0 {
		t.Fatal("no candidates planned")
	}
	if !reflect.DeepEqual(fromCommit, fromDiff) {
		t.Error("planning from the commit's cached patch differs from planning from a fresh diff")
	}
	if !reflect.DeepEqual(fromCommit.Realize(), fromDiff.Realize()) {
		t.Error("realized variants differ")
	}
}

func TestSynthesizeSkipsNonC(t *testing.T) {
	before := map[string]string{"README.md": "# old\nif (x) y;\n"}
	after := map[string]string{"README.md": "# new\nif (x) y;\n"}
	ov := &Oversampler{}
	syns, err := ov.Synthesize("cafe06", before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(syns) != 0 {
		t.Errorf("non-C file produced %d synthetics", len(syns))
	}
}

func TestSynthesizeUntouchedIfIgnored(t *testing.T) {
	// The patch changes a line FAR from the only if statement: no variants.
	b := `int f(int a)
{
	if (a > 0)
		return 1;
	return 0;
}

int g(int b)
{
	return b + 1;
}
`
	a := strings.Replace(b, "b + 1", "b + 2", 1)
	ov := &Oversampler{}
	syns, err := ov.Synthesize("cafe07", map[string]string{"x.c": b}, map[string]string{"x.c": a})
	if err != nil {
		t.Fatal(err)
	}
	if len(syns) != 0 {
		t.Errorf("untouched if produced %d synthetics", len(syns))
	}
}

func TestVariantAndSideStrings(t *testing.T) {
	for v := Variant(1); v <= NumVariants; v++ {
		if v.String() == "unknown" {
			t.Errorf("variant %d unnamed", v)
		}
	}
	if Variant(0).String() != "unknown" {
		t.Error("invalid variant named")
	}
	if ModifyAfter.String() != "after" || ModifyBefore.String() != "before" {
		t.Error("side names wrong")
	}
}
