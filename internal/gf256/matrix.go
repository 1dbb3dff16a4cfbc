package gf256

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len Rows*Cols
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols matrix V with V[i][j] = x_i^j, where
// x_i is the field element whose byte value is i+shift. The points are
// pairwise distinct while rows+shift <= Order, so any cols of the rows
// form an invertible matrix: the property the systematic construction
// relies on.
func Vandermonde(rows, cols, shift int) *Matrix {
	if rows+shift > Order {
		panic(fmt.Sprintf("gf256: Vandermonde needs rows+shift <= %d, got %d", Order, rows+shift))
	}
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		x := byte(i + shift)
		v := byte(1)
		for j := 0; j < cols; j++ {
			m.Set(i, j, v)
			v = Mul(v, x)
		}
	}
	return m
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Mul returns the matrix product m*other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: matrix product dimension mismatch %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			if c := mi[k]; c != 0 {
				MulAddSlice(c, other.Row(k), oi)
			}
		}
	}
	return out
}

// ErrSingular is returned by Invert when the matrix has no inverse.
var ErrSingular = errors.New("gf256: singular matrix")

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination with partial pivoting (pivot search is for any non-zero
// entry; there is no rounding in a finite field). The receiver is not
// modified. Returns ErrSingular if no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("gf256: Invert of non-square %dx%d matrix", m.Rows, m.Cols))
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalise the pivot row.
		if pv := a.At(col, col); pv != 1 {
			t := &mulTbl[Inv(pv)]
			ra, ri := a.Row(col), inv.Row(col)
			for i := range ra {
				ra[i], ri[i] = t[ra[i]], t[ri[i]]
			}
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := a.At(r, col); f != 0 {
				MulAddSlice(f, a.Row(col), a.Row(r))
				MulAddSlice(f, inv.Row(col), inv.Row(r))
			}
		}
	}
	return inv, nil
}

// SolveSmall runs Invert's Gauss-Jordan elimination in place, allocating
// nothing, over the row-major n x w matrix m = [A | B] with A square: it
// leaves [I | A^-1 B], so B = I yields the inverse and any other columns
// ride along at one pass. It works a byte at a time through the shared
// product table: it is meant for a handful of short rows (the rse
// decoder's l x l parity subsystem), where the slice kernels' dispatch
// would cost more than the arithmetic and their pair tables would be built
// for rows of a few words. Returns ErrSingular, with m half-reduced, if A
// has no inverse.
func SolveSmall(m []byte, n, w int) error {
	for col := 0; col < n; col++ {
		pivot := col
		for pivot < n && m[pivot*w+col] == 0 {
			pivot++
		}
		if pivot == n {
			return ErrSingular
		}
		prow := m[col*w : (col+1)*w]
		if pivot != col {
			other := m[pivot*w : (pivot+1)*w]
			for i := range prow {
				prow[i], other[i] = other[i], prow[i]
			}
		}
		if pv := prow[col]; pv != 1 {
			t := &mulTbl[invTbl[pv]]
			for i, v := range prow {
				prow[i] = t[v]
			}
		}
		for r := 0; r < n; r++ {
			row := m[r*w : (r+1)*w]
			if f := row[col]; r != col && f != 0 {
				t := &mulTbl[f]
				for i, v := range prow {
					row[i] ^= t[v]
				}
			}
		}
	}
	return nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SubMatrix returns the matrix formed by the given rows of m (in order).
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}
