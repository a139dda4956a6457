package nearestlink

import (
	"fmt"
	"math"
)

// Matrix is a flat, row-major feature matrix: rows*cols float64 values in
// one contiguous allocation with a fixed stride between rows. The engine
// operates exclusively on this layout — scanning a wild pool walks memory
// sequentially instead of chasing per-row pointers, which is what lets the
// distance kernel run at cache speed on realistic (thousands × millions)
// problem sizes.
type Matrix struct {
	rows, cols int
	// stride is the element distance between consecutive rows; always
	// >= cols (== cols for matrices built here, kept separate so future
	// sub-views can share one backing array).
	stride int
	data   []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nearestlink: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, stride: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows copies a [][]float64 into flat storage, validating that
// every row shares the first row's dimensionality. A ragged input returns a
// wrapped ErrDimensionMismatch instead of the out-of-range panic the old
// pointer-per-row code paths risked.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d",
				ErrDimensionMismatch, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// flatten copies pre-validated rows into flat storage (internal fast path;
// callers must have run validateDims).
func flatten(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the per-row feature dimensionality.
func (m *Matrix) Cols() int { return m.cols }

// Stride returns the element distance between consecutive rows.
func (m *Matrix) Stride() int { return m.stride }

// Data exposes the backing array (row-major, stride-spaced).
func (m *Matrix) Data() []float64 { return m.data }

// Row returns the i-th row as a view into the backing array (no copy).
func (m *Matrix) Row(i int) []float64 {
	off := i * m.stride
	return m.data[off : off+m.cols : off+m.cols]
}

// RowSlices returns the rows as a [][]float64 of views into the flat
// backing array — one header allocation, zero data copies. It lets flat
// matrices feed APIs that still speak [][]float64 (the ml classifiers).
func (m *Matrix) RowSlices() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// Clone returns a deep copy. Densely packed matrices (stride == cols, the
// layout every constructor here produces) clone with one bulk copy instead
// of a per-row loop — this sits on the SearchMatrix hot path, where
// normalization clones the full wild pool before weighting it.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	if m.stride == m.cols {
		copy(c.data, m.data)
		return c
	}
	for i := 0; i < m.rows; i++ {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// weightsFlat computes the max-abs weights w_j = 1/max|a_j| over the rows
// of all provided matrices (they must share a column count).
func weightsFlat(sets ...*Matrix) []float64 {
	dim := 0
	for _, s := range sets {
		if s != nil && s.rows > 0 {
			dim = s.cols
			break
		}
	}
	w := make([]float64, dim)
	for _, s := range sets {
		if s == nil {
			continue
		}
		for i := 0; i < s.rows; i++ {
			row := s.Row(i)
			for j, v := range row {
				if v < 0 {
					v = -v
				}
				if v > w[j] {
					w[j] = v
				}
			}
		}
	}
	for j := range w {
		if w[j] == 0 {
			w[j] = 1
		} else {
			w[j] = 1 / w[j]
		}
	}
	return w
}

// applyWeights scales every row of m by w in place.
func applyWeights(m *Matrix, w []float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= w[j]
		}
	}
}

// weightedClone returns a copy of m with every row scaled by w.
func weightedClone(m *Matrix, w []float64) *Matrix {
	c := m.Clone()
	applyWeights(c, w)
	return c
}

// rowNorms returns the Euclidean norm ‖x‖ of every row, computed with the
// blocked dot kernel. The norms feed the engine's O(1) candidate rejection
// bound (‖a‖−‖b‖)² ≤ ‖a−b‖².
func rowNorms(m *Matrix) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		out[i] = math.Sqrt(dot(row, row))
	}
	return out
}
