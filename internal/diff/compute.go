package diff

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// editOp is one element of an edit script.
type editOp struct {
	kind LineKind // Context = keep, Removed = delete from old, Added = insert from new
	text string
}

// Compute builds the per-file diff between two versions of a file using the
// Myers O(ND) algorithm, grouped into hunks with the given number of context
// lines. It returns nil if the versions are identical.
func Compute(path string, oldText, newText string, contextLines int) *FileDiff {
	oldLines := splitLines(oldText)
	newLines := splitLines(newText)
	script := myers(oldLines, newLines)
	changed := false
	for _, op := range script {
		if op.kind != Context {
			changed = true
			break
		}
	}
	if !changed {
		return nil
	}
	fd := &FileDiff{OldPath: path, NewPath: path}
	fd.Hunks = groupHunks(script, contextLines)
	return fd
}

// ComputePatch diffs a whole set of files (map path -> content) and
// assembles a Patch. Files present in only one side are treated as
// added/deleted wholesale.
func ComputePatch(commit, message string, oldFiles, newFiles map[string]string, contextLines int) *Patch {
	p := &Patch{Commit: commit, Message: message}
	paths := make([]string, 0, len(oldFiles)+len(newFiles))
	seen := make(map[string]bool, len(oldFiles)+len(newFiles))
	for path := range oldFiles {
		paths = append(paths, path)
		seen[path] = true
	}
	for path := range newFiles {
		if !seen[path] {
			paths = append(paths, path)
		}
	}
	sortStrings(paths)
	for _, path := range paths {
		fd := Compute(path, oldFiles[path], newFiles[path], contextLines)
		if fd != nil {
			p.Files = append(p.Files, fd)
		}
	}
	return p
}

func splitLines(text string) []string {
	if text == "" {
		return nil
	}
	lines := strings.Split(text, "\n")
	// A trailing newline produces one empty trailing element; drop it so the
	// line count matches the visible lines.
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// myersState is the state vector and trace of one myers call. Every
// extracted and synthesized patch runs myers once per file, so the buffers
// are pooled; each call clears the part it reads.
type myersState struct{ v, trace []int }

var myersPool = sync.Pool{New: func() any { return new(myersState) }}

// myers computes a line-level edit script using the greedy Myers algorithm.
func myers(a, b []string) []editOp {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	st := myersPool.Get().(*myersState)
	defer myersPool.Put(st)
	off := n + m
	// v[k+off] = furthest x on diagonal k
	v := slices.Grow(st.v[:0], 2*off+2)[:2*off+2]
	clear(v)
	st.v = v
	// Before round d, trace[d*d : d*d+2d+1] records v on diagonals -d..d,
	// the only ones backtracking reads for round d, so the trace holds
	// O(D²) ints.
	trace := st.trace[:0]
	dFound := -1
	for d := 0; d <= off && dFound < 0; d++ {
		trace = append(trace, v[off-d:off+d+1]...)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+off] < v[k+1+off]) {
				x = v[k+1+off]
			} else {
				x = v[k-1+off] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+off] = x
			if x >= n && y >= m {
				dFound = d
				break
			}
		}
	}
	st.trace = trace // keep the grown buffer for the next call
	// Backtrack. The script keeps (n+m-D)/2 lines and edits D, so it holds
	// exactly (n+m+D)/2 ops.
	ops := make([]editOp, 0, (n+m+dFound)/2)
	x, y := n, m
	for d := dFound; d > 0; d-- {
		// vPrev[k+d] is v[k+off] as it stood before round d.
		vPrev := trace[d*d : d*d+2*d+1]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[k-1+d] < vPrev[k+1+d]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[prevK+d]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			ops = append(ops, editOp{kind: Context, text: a[x]})
		}
		if x == prevX {
			y--
			ops = append(ops, editOp{kind: Added, text: b[y]})
		} else {
			x--
			ops = append(ops, editOp{kind: Removed, text: a[x]})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		ops = append(ops, editOp{kind: Context, text: a[x]})
	}
	for y > 0 {
		y--
		ops = append(ops, editOp{kind: Added, text: b[y]})
	}
	for x > 0 {
		x--
		ops = append(ops, editOp{kind: Removed, text: a[x]})
	}
	reverseOps(ops)
	return normalizeScript(ops)
}

// normalizeScript reorders each change region in place so removals precede
// additions, matching git's unified diff convention. Both keep their order.
func normalizeScript(ops []editOp) []editOp {
	var added []editOp // one region's additions, reused across regions
	for i := 0; i < len(ops); {
		if ops[i].kind == Context {
			i++
			continue
		}
		w := i // removals move down to w, which never passes i
		added = added[:0]
		for ; i < len(ops) && ops[i].kind != Context; i++ {
			if ops[i].kind == Removed {
				ops[w] = ops[i]
				w++
			} else {
				added = append(added, ops[i])
			}
		}
		copy(ops[w:i], added)
	}
	return ops
}

func reverseOps(ops []editOp) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// groupHunks slices an edit script into hunks separated by more than
// 2*contextLines of unchanged lines.
func groupHunks(script []editOp, contextLines int) []*Hunk {
	type region struct{ start, end int } // change region indices in script
	var regions []region
	for i := 0; i < len(script); i++ {
		if script[i].kind == Context {
			continue
		}
		start := i
		for i < len(script) && script[i].kind != Context {
			i++
		}
		regions = append(regions, region{start, i})
	}
	if len(regions) == 0 {
		return nil
	}
	// Merge regions whose context gap is <= 2*contextLines.
	var merged []region
	cur := regions[0]
	for _, r := range regions[1:] {
		if r.start-cur.end <= 2*contextLines {
			cur.end = r.end
		} else {
			merged = append(merged, cur)
			cur = r
		}
	}
	merged = append(merged, cur)

	// Precompute old/new line numbers before each script index.
	oldAt := make([]int, len(script)+1) // old lines consumed before index i
	newAt := make([]int, len(script)+1)
	for i, op := range script {
		oldAt[i+1] = oldAt[i]
		newAt[i+1] = newAt[i]
		switch op.kind {
		case Context:
			oldAt[i+1]++
			newAt[i+1]++
		case Removed:
			oldAt[i+1]++
		case Added:
			newAt[i+1]++
		}
	}

	hunks := make([]*Hunk, 0, len(merged))
	for _, r := range merged {
		lo := r.start - contextLines
		if lo < 0 {
			lo = 0
		}
		hi := r.end + contextLines
		if hi > len(script) {
			hi = len(script)
		}
		h := &Hunk{
			OldStart: oldAt[lo] + 1,
			NewStart: newAt[lo] + 1,
			Lines:    make([]Line, 0, hi-lo),
		}
		for i := lo; i < hi; i++ {
			h.Lines = append(h.Lines, Line{Kind: script[i].kind, Text: script[i].text})
			switch script[i].kind {
			case Context:
				h.OldLines++
				h.NewLines++
			case Removed:
				h.OldLines++
			case Added:
				h.NewLines++
			}
		}
		if h.OldLines == 0 {
			h.OldStart--
		}
		if h.NewLines == 0 {
			h.NewStart--
		}
		hunks = append(hunks, h)
	}
	return hunks
}

func sortStrings(s []string) { sort.Strings(s) }

// Apply reconstructs the new version of a file from the old version and the
// file's hunks. It returns an error if the hunks do not match the old text.
func Apply(oldText string, fd *FileDiff) (string, error) {
	oldLines := splitLines(oldText)
	var out []string
	cursor := 0 // 0-based index into oldLines
	for _, h := range fd.Hunks {
		start := h.OldStart - 1
		if h.OldLines == 0 {
			start = h.OldStart
		}
		if start < cursor || start > len(oldLines) {
			return "", &ParseError{Reason: "hunk does not fit old file"}
		}
		out = append(out, oldLines[cursor:start]...)
		cursor = start
		for _, ln := range h.Lines {
			switch ln.Kind {
			case Context:
				if cursor >= len(oldLines) || oldLines[cursor] != ln.Text {
					return "", &ParseError{Reason: "context mismatch applying hunk"}
				}
				out = append(out, ln.Text)
				cursor++
			case Removed:
				if cursor >= len(oldLines) || oldLines[cursor] != ln.Text {
					return "", &ParseError{Reason: "removed-line mismatch applying hunk"}
				}
				cursor++
			case Added:
				out = append(out, ln.Text)
			}
		}
	}
	out = append(out, oldLines[cursor:]...)
	if len(out) == 0 {
		return "", nil
	}
	return strings.Join(out, "\n") + "\n", nil
}
