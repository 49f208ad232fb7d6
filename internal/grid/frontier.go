package grid

import "fmt"

// This file generalizes the execution substrate from dense anti-diagonal
// enumeration to explicit wavefront frontiers. A Frontier is an iterator
// over "ready sets": batches of cells that are mutually independent and
// whose dependencies have all been delivered by earlier steps. Executors
// compute one step at a time with a barrier between steps, so any
// dependency-respecting kernel produces identical results through any
// frontier covering the same cells.
//
// Two families are provided:
//
//   - DiagFrontier: the dense special case. Steps are the closed-form
//     anti-diagonals (NumDiags/DiagLen/DiagCell), so it costs
//     nothing to construct and its step count is known a priori. This is
//     the frontier every regular wavefront workload uses.
//   - IrregularFrontier: the general case, in the spirit of the irregular
//     wavefront propagation patterns of Teodoro et al. The live region is
//     an arbitrary subset of the rectangle (a mask), dependencies are a
//     declared Stencil, and readiness is tracked with per-cell in-degree
//     counting: the constructor seeds a ready queue with the cells that
//     have no live predecessors, and completing a step decrements the
//     in-degrees of its successors, releasing the next ready set.
//
// A frontier over a masked region can dead-end: if the stencil induces a
// dependency cycle (or a self-dependency), some live cells never become
// ready. Frontiers report their intended coverage via Cells so executors
// can detect this and fail instead of silently under-computing (or
// hanging).

// Cell identifies one grid cell by row and column.
type Cell struct{ R, C int }

// Offset is one relative dependency of a stencil: cell (r, c) depends on
// cell (r+DR, c+DC). Wavefront dependencies point at already-computed
// cells, so useful offsets have DR < 0, or DR == 0 and DC < 0.
type Offset struct{ DR, DC int }

// Stencil is the dependency shape of a kernel: the set of relative
// offsets a cell reads. Executors use it to schedule irregular frontiers;
// the dense diagonal path only relies on the weaker guarantee that every
// dependency lies on an earlier anti-diagonal.
type Stencil []Offset

// DenseStencil returns the classic wavefront dependency cone — west,
// north and northwest — which every paper kernel and the executors'
// barrier discipline are proven against.
func DenseStencil() Stencil {
	return Stencil{{0, -1}, {-1, 0}, {-1, -1}}
}

// Causal reports whether every offset points strictly backwards in
// row-major order (DR < 0, or DR == 0 and DC < 0). A causal stencil can
// never dead-end on a full rectangle; non-causal stencils may induce
// cycles, which frontier construction surfaces as a stuck frontier.
func (s Stencil) Causal() bool {
	for _, o := range s {
		if o.DR > 0 || (o.DR == 0 && o.DC >= 0) {
			return false
		}
	}
	return len(s) > 0
}

// Frontier iterates over the ready cell sets of a wavefront computation.
// Cells within one step are mutually independent; a step's dependencies
// are all contained in earlier steps. Implementations are single-use and
// not safe for concurrent use; the slice returned by Next is only valid
// until the following Next call.
type Frontier interface {
	// Next returns the next ready set; ok is false once the frontier is
	// exhausted (the returned slice is then empty).
	Next() (step []Cell, ok bool)
	// Cells returns the total number of cells the frontier intends to
	// deliver. Executors compare it against the delivered count to
	// detect frontiers that dead-end before covering their region.
	Cells() int
	// Steps returns the total number of steps when it is known in closed
	// form (the dense diagonal case), and -1 otherwise.
	Steps() int
}

// DiagFrontier is the dense frontier: steps are the anti-diagonals of a
// contiguous range, enumerated in closed form. It is the fast special
// case of Frontier that the classic NumDiags/DiagLen/DiagCell helpers
// describe.
type DiagFrontier struct {
	rows, cols int
	lo, hi     int
	d          int
	buf        []Cell
}

// NewDiagRangeFrontier returns the dense frontier over anti-diagonals
// [lo, hi] of a rows x cols grid; the range is clamped to the grid.
func NewDiagRangeFrontier(rows, cols, lo, hi int) *DiagFrontier {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("grid: frontier shape must be positive, got %dx%d", rows, cols))
	}
	if lo < 0 {
		lo = 0
	}
	if hi > NumDiags(rows, cols)-1 {
		hi = NumDiags(rows, cols) - 1
	}
	return &DiagFrontier{rows: rows, cols: cols, lo: lo, hi: hi, d: lo}
}

// DiagRange returns the inclusive anti-diagonal range the frontier
// covers. Consumers with closed-form fast paths (the analytic cost
// model, the GPU band planner) use it to bypass step-by-step iteration.
func (f *DiagFrontier) DiagRange() (lo, hi int) { return f.lo, f.hi }

// Next implements Frontier: one anti-diagonal per step.
func (f *DiagFrontier) Next() ([]Cell, bool) {
	if f.d > f.hi {
		return nil, false
	}
	n := DiagLen(f.rows, f.cols, f.d)
	if cap(f.buf) < n {
		f.buf = make([]Cell, n)
	}
	step := f.buf[:n]
	for i := 0; i < n; i++ {
		r, c := DiagCell(f.rows, f.cols, f.d, i)
		step[i] = Cell{R: r, C: c}
	}
	f.d++
	return step, true
}

// Cells implements Frontier.
func (f *DiagFrontier) Cells() int {
	return CellsInDiagRange(f.rows, f.cols, f.lo, f.hi)
}

// Steps implements Frontier: the closed-form diagonal count.
func (f *DiagFrontier) Steps() int {
	if f.hi < f.lo {
		return 0
	}
	return f.hi - f.lo + 1
}

// IrregularFrontier propagates over an arbitrary live region with
// per-cell in-degree counting: a work queue seeded from the cells with
// no live predecessors, released level by level as dependencies
// complete. This is the general substrate behind masked workloads
// (Nussinov's triangle, morphological reconstruction on a mask).
type IrregularFrontier struct {
	rows, cols int
	stencil    Stencil
	live       []bool
	indeg      []int32
	ready      []Cell
	next       []Cell
	total      int
	started    bool
}

// NewIrregularFrontier builds the frontier over the cells of a
// rows x cols grid for which live returns true (a nil live keeps the
// whole rectangle), depending on each other through the given stencil.
// Construction is O(cells x |stencil|); on a full rectangle with the
// dense stencil the resulting steps are exactly the anti-diagonals, so
// the irregular path is a strict generalization of the dense one.
func NewIrregularFrontier(rows, cols int, st Stencil, live func(r, c int) bool) *IrregularFrontier {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("grid: frontier shape must be positive, got %dx%d", rows, cols))
	}
	if len(st) == 0 {
		st = DenseStencil()
	}
	f := &IrregularFrontier{
		rows: rows, cols: cols, stencil: st,
		live:  make([]bool, rows*cols),
		indeg: make([]int32, rows*cols),
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if live == nil || live(r, c) {
				f.live[r*cols+c] = true
				f.total++
			}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if !f.live[i] {
				continue
			}
			for _, o := range st {
				pr, pc := r+o.DR, c+o.DC
				if pr >= 0 && pr < rows && pc >= 0 && pc < cols && f.live[pr*cols+pc] {
					f.indeg[i]++
				}
			}
			if f.indeg[i] == 0 {
				f.ready = append(f.ready, Cell{R: r, C: c})
			}
		}
	}
	return f
}

// Next implements Frontier: it returns the current ready level and
// releases the cells whose last dependency it contains. Levels are
// deterministic: cells enter a level in row-major order of their final
// releasing dependency scan.
func (f *IrregularFrontier) Next() ([]Cell, bool) {
	if f.started {
		// Completing the previous step releases its successors: a
		// dependency (r+DR, c+DC) -> (r, c) reversed is (r-DR, c-DC).
		f.next = f.next[:0]
		for _, cell := range f.ready {
			for _, o := range f.stencil {
				sr, sc := cell.R-o.DR, cell.C-o.DC
				if sr < 0 || sr >= f.rows || sc < 0 || sc >= f.cols {
					continue
				}
				j := sr*f.cols + sc
				if !f.live[j] {
					continue
				}
				if f.indeg[j]--; f.indeg[j] == 0 {
					f.next = append(f.next, Cell{R: sr, C: sc})
				}
			}
		}
		f.ready, f.next = f.next, f.ready
	}
	f.started = true
	if len(f.ready) == 0 {
		return nil, false
	}
	return f.ready, true
}

// Cells implements Frontier: the size of the live region.
func (f *IrregularFrontier) Cells() int { return f.total }

// Steps implements Frontier: level counts of irregular regions have no
// closed form, so it returns -1; use CountFrontier to measure one.
func (f *IrregularFrontier) Steps() int { return -1 }

// CountFrontier drains f and returns the number of steps and cells it
// delivered. It is the way to obtain the true wavefront step count of an
// irregular region — progress accounting must use it (or the executor's
// delivered counts) rather than NumDiags, which only equals the step
// count for dense rectangles. The frontier is consumed.
func CountFrontier(f Frontier) (steps, cells int) {
	for {
		step, ok := f.Next()
		if !ok {
			return steps, cells
		}
		steps++
		cells += len(step)
	}
}
