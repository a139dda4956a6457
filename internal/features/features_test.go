package features

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"patchdb/internal/diff"
)

func mustParse(t *testing.T, text string) *diff.Patch {
	t.Helper()
	p, err := diff.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func patchFrom(t *testing.T, removed, added []string) *diff.Patch {
	t.Helper()
	var b strings.Builder
	b.WriteString("commit 0123456789abcdef\n")
	b.WriteString("diff --git a/f.c b/f.c\n--- a/f.c\n+++ b/f.c\n")
	b.WriteString("@@ -1,0 +1,0 @@ int fn(void)\n")
	b.WriteString(" context\n")
	for _, l := range removed {
		b.WriteString("-" + l + "\n")
	}
	for _, l := range added {
		b.WriteString("+" + l + "\n")
	}
	b.WriteString(" context\n")
	return mustParse(t, b.String())
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != Dim {
		t.Fatalf("Names() len = %d", len(names))
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Errorf("dim %d unnamed", i)
		}
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
	if Name(-1) != "invalid" || Name(Dim) != "invalid" {
		t.Error("out-of-range Name not flagged")
	}
	if Name(IdxHunks) != "hunks" {
		t.Errorf("Name(IdxHunks) = %q", Name(IdxHunks))
	}
}

func TestBasicCounts(t *testing.T) {
	p := patchFrom(t,
		[]string{"if (x > 0)"},
		[]string{"if (x > 0 && y != NULL)", "return -1;"},
	)
	v := Extract(p, 0)
	check := func(idx int, want float64, label string) {
		t.Helper()
		if v[idx] != want {
			t.Errorf("%s = %v, want %v", label, v[idx], want)
		}
	}
	check(IdxChangedLines, 3, "changed lines")
	check(IdxHunks, 1, "hunks")
	check(IdxAddedLines, 2, "added lines")
	check(IdxAddedLines+1, 1, "removed lines")
	check(IdxAddedLines+2, 3, "total lines")
	check(IdxAddedLines+3, 1, "net lines")
	check(IdxIfStmts, 1, "added ifs")
	check(IdxIfStmts+1, 1, "removed ifs")
	check(IdxIfStmts+2, 2, "total ifs")
	check(IdxIfStmts+3, 0, "net ifs")
	// rel ops: added has > and != (2); removed has > (1)
	check(IdxRel, 2, "added rel")
	check(IdxRel+1, 1, "removed rel")
	// logic ops: added && (1)
	check(IdxLogic, 1, "added logic")
	check(IdxLogic+3, 1, "net logic")
}

func TestLoopCallMemCounts(t *testing.T) {
	p := patchFrom(t,
		[]string{"for (i = 0; i < n; i++)"},
		[]string{"while (n--)", "memcpy(dst, src, n);", "helper(n);"},
	)
	v := Extract(p, 0)
	if v[IdxLoops] != 1 || v[IdxLoops+1] != 1 {
		t.Errorf("loops = %v/%v", v[IdxLoops], v[IdxLoops+1])
	}
	// calls: memcpy + helper added (memcpy is both call and memory op)
	if v[IdxCalls] != 2 {
		t.Errorf("added calls = %v", v[IdxCalls])
	}
	if v[IdxMem] != 1 {
		t.Errorf("added mem ops = %v", v[IdxMem])
	}
}

func TestLevenshteinFeatures(t *testing.T) {
	// One hunk where removed and added are identical after abstraction but
	// differ before.
	p := patchFrom(t,
		[]string{"x = foo(a);"},
		[]string{"y = bar(b);"},
	)
	v := Extract(p, 0)
	if v[IdxLevMeanRaw] == 0 {
		t.Error("raw Levenshtein should be > 0")
	}
	if v[IdxLevMeanAbs] != 0 {
		t.Errorf("abstract Levenshtein = %v, want 0 (VAR = FUNC ( VAR ) ; both sides)", v[IdxLevMeanAbs])
	}
	if v[IdxSameHunksAbs] != 1 {
		t.Errorf("same hunks after abstraction = %v, want 1", v[IdxSameHunksAbs])
	}
	if v[IdxSameHunksRaw] != 0 {
		t.Errorf("same hunks before abstraction = %v, want 0", v[IdxSameHunksRaw])
	}
}

func TestPureMoveSameHunks(t *testing.T) {
	// A hunk that removes and re-adds the same text has distance 0 both ways.
	p := patchFrom(t, []string{"ctx->refs++;"}, []string{"ctx->refs++;"})
	v := Extract(p, 0)
	if v[IdxSameHunksRaw] != 1 || v[IdxSameHunksAbs] != 1 {
		t.Errorf("same hunks = %v/%v, want 1/1", v[IdxSameHunksRaw], v[IdxSameHunksAbs])
	}
}

func TestAffectedFilesAndFuncs(t *testing.T) {
	text := "commit 0123456789abcdef\n" +
		"diff --git a/a.c b/a.c\n--- a/a.c\n+++ b/a.c\n" +
		"@@ -1,2 +1,2 @@ int first(void)\n ctx\n-x\n+y\n" +
		"@@ -10,2 +10,2 @@ int second(int n)\n ctx\n-x\n+y\n" +
		"diff --git a/b.c b/b.c\n--- a/b.c\n+++ b/b.c\n" +
		"@@ -1,2 +1,2 @@ int third(void)\n ctx\n-x\n+y\n"
	p := mustParse(t, text)
	v := Extract(p, 4) // commit originally touched 4 files (one stripped)
	if v[IdxAffectedFiles] != 2 {
		t.Errorf("affected files = %v", v[IdxAffectedFiles])
	}
	if v[IdxAffectedFilesP] != 0.5 {
		t.Errorf("affected files pct = %v, want 0.5", v[IdxAffectedFilesP])
	}
	if v[IdxAffectedFuncs] != 3 {
		t.Errorf("affected funcs = %v", v[IdxAffectedFuncs])
	}
	if v[IdxFuncsTotal] != 3 {
		t.Errorf("total modified funcs = %v", v[IdxFuncsTotal])
	}
}

func TestFunctionDefDetection(t *testing.T) {
	p := patchFrom(t,
		[]string{},
		[]string{"int new_helper(struct s *p)"},
	)
	v := Extract(p, 0)
	if v[IdxFuncsNet] != 1 {
		t.Errorf("net modified funcs = %v, want 1 (definition added)", v[IdxFuncsNet])
	}
	// A call statement must NOT be counted as a definition.
	p2 := patchFrom(t, nil, []string{"helper(a, b);"})
	if v2 := Extract(p2, 0); v2[IdxFuncsNet] != 0 {
		t.Errorf("call counted as definition: %v", v2[IdxFuncsNet])
	}
}

func TestCharCounts(t *testing.T) {
	p := patchFrom(t, []string{"abc"}, []string{"abcdef"})
	v := Extract(p, 0)
	if v[IdxAddedChars] != 6 || v[IdxAddedChars+1] != 3 || v[IdxAddedChars+2] != 9 || v[IdxAddedChars+3] != 3 {
		t.Errorf("chars = %v %v %v %v", v[IdxAddedChars], v[IdxAddedChars+1], v[IdxAddedChars+2], v[IdxAddedChars+3])
	}
}

func TestEmptyPatch(t *testing.T) {
	p := &diff.Patch{Commit: "deadbeef"}
	v := Extract(p, 0)
	for i, x := range v {
		if x != 0 {
			t.Errorf("dim %s = %v on empty patch", Name(i), x)
		}
	}
}

func TestVectorDimStable(t *testing.T) {
	p := patchFrom(t, []string{"a"}, []string{"b"})
	if got := len(Extract(p, 0)); got != Dim {
		t.Fatalf("Extract len = %d, want %d", got, Dim)
	}
}

func TestTokenSequence(t *testing.T) {
	p := patchFrom(t,
		[]string{"if (x > 0)"},
		[]string{"if (x > 0 && y)"},
	)
	seq := TokenSequence(p)
	if len(seq) == 0 || seq[0] != TokHunk {
		t.Fatalf("sequence must start with hunk marker: %v", seq)
	}
	var hasRem, hasAdd bool
	for _, tok := range seq {
		if tok == TokRemoved {
			hasRem = true
		}
		if tok == TokAdded {
			hasAdd = true
		}
	}
	if !hasRem || !hasAdd {
		t.Errorf("markers missing: %v", seq)
	}
	// Identifiers must be abstracted.
	for _, tok := range seq {
		if tok == "x" || tok == "y" {
			t.Errorf("unabstracted identifier %q in %v", tok, seq)
		}
	}
}

func TestTokenSequenceEmptySides(t *testing.T) {
	p := patchFrom(t, nil, []string{"return 0;"})
	seq := TokenSequence(p)
	for _, tok := range seq {
		if tok == TokRemoved {
			t.Errorf("removal marker present without removed lines: %v", seq)
		}
	}
}

// allocPatch is a fixed four-hunk patch over a C file of ordinary
// statements: a guard added, a call rewritten, a loop bound fixed and a
// copy length clamped.
func allocPatch() *diff.Patch {
	lines := make([]string, 160)
	for i := range lines {
		switch i % 4 {
		case 0:
			lines[i] = fmt.Sprintf("\tif (buf_%d->len > max_len) {", i)
		case 1:
			lines[i] = fmt.Sprintf("\t\tret = process_item(ctx, buf_%d, idx + %d);", i, i)
		case 2:
			lines[i] = fmt.Sprintf("\t\tcount_%d += (flags & 0x%x) >> 2;", i, i)
		default:
			lines[i] = "\t}"
		}
	}
	oldText := strings.Join(lines, "\n") + "\n"
	lines[20] = "\tif (buf_20 == NULL || buf_20->len > max_len) {"
	lines[61] = "\t\tret = process_item_checked(ctx, buf_61, idx + 61, sizeof(*buf_61));"
	lines = slices.Insert(lines, 100, "\tfor (i = 0; i < n && i < MAX_ITEMS; i++)", "\t\tmemset(&items[i], 0, sizeof(items[i]));")
	lines[140] = "\t\tmemcpy(dst, src, min(len, sizeof(dst)));"
	newText := strings.Join(lines, "\n") + "\n"
	return diff.ComputePatch("feedface", "", map[string]string{"src/item.c": oldText},
		map[string]string{"src/item.c": newText}, 3)
}

// TestExtractAllocBound keeps Extract to one token buffer per patch and one
// set of hunk token lists. Lexing each line into a fresh, growing slice and
// copying it through per-line Texts and Abstract slices allocated 29,200
// bytes per call on this patch; the bound is half of that.
func TestExtractAllocBound(t *testing.T) {
	p := allocPatch()
	if n := len(p.HunkList()); n != 4 {
		t.Fatalf("fixture has %d hunks, want 4", n)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			Extract(p, 1)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 29200/2 {
		t.Errorf("Extract allocated %d bytes per call, want <= %d", got, 29200/2)
	}
}
