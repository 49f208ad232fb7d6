// Package cpuexec executes wavefront computations on the real host CPU.
// It provides the serial reference sweep and the tiled parallel executor
// described in Section 2 of the paper: the grid is partitioned into square
// cpu-tile x cpu-tile tiles, tiles on the same tile-diagonal are
// independent and run concurrently on a goroutine worker pool, and a
// barrier separates consecutive tile-diagonals. Grids may be rectangular
// (rows != cols); tiles at the edges are clipped.
//
// This is the "threads to control CPU phases" half of the paper's library;
// the simulated platforms use the same tile-diagonal schedule via package
// plan, so native runs and modeled runs share one decomposition.
package cpuexec

import (
	"fmt"
	"runtime"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// RunSerial computes every cell of g with k in row-major order, the
// optimized sequential baseline of the paper's comparisons.
func RunSerial(k kernels.Kernel, g *grid.Grid) {
	rows, cols := g.Rows(), g.Cols()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			k.Compute(g, r, c)
		}
	}
}

// RunSerialDiagRange computes the cells on diagonals [lo, hi] of g in
// anti-diagonal order. It is the reference for phase-restricted execution.
func RunSerialDiagRange(k kernels.Kernel, g *grid.Grid, lo, hi int) {
	rows, cols := g.Rows(), g.Cols()
	if lo < 0 {
		lo = 0
	}
	if hi > g.NumDiags()-1 {
		hi = g.NumDiags() - 1
	}
	for d := lo; d <= hi; d++ {
		for i := 0; i < grid.DiagLen(rows, cols, d); i++ {
			r, c := grid.DiagCell(rows, cols, d, i)
			k.Compute(g, r, c)
		}
	}
}

// Executor runs tiled parallel wavefront sweeps on a persistent
// fixed-size worker pool. An Executor is safe for sequential reuse across
// many runs; Close releases its workers, after which Run returns
// ErrClosed.
type Executor struct {
	workers int
	pl      *pool
}

// New returns an executor with the given worker count; workers <= 0
// selects GOMAXPROCS.
func New(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers, pl: newPool(workers)}
}

// Close stops the executor's workers and waits for them to exit. It is
// idempotent; subsequent Run calls return ErrClosed.
func (e *Executor) Close() { e.pl.close() }

// Workers returns the pool size.
func (e *Executor) Workers() int { return e.workers }

// Run computes the whole grid with square tiles of side ct.
func (e *Executor) Run(k kernels.Kernel, g *grid.Grid, ct int) error {
	return e.RunDiagRange(k, g, ct, 0, g.NumDiags()-1)
}

// RunDiagRange computes the cells of g whose diagonal index lies in
// [lo, hi], using tiles of side ct. Tiles are processed tile-diagonal by
// tile-diagonal; within a tile, cells are visited row-major and clipped to
// the diagonal range, so the executor is usable for the CPU phases of the
// three-phase strategy.
func (e *Executor) RunDiagRange(k kernels.Kernel, g *grid.Grid, ct, lo, hi int) error {
	rows, cols := g.Rows(), g.Cols()
	maxSide := rows
	if cols > maxSide {
		maxSide = cols
	}
	if ct < 1 || ct > maxSide {
		return fmt.Errorf("cpuexec: cpu-tile %d outside [1,%d]", ct, maxSide)
	}
	if e.pl.isClosed() {
		return ErrClosed
	}
	if lo < 0 {
		lo = 0
	}
	if hi > g.NumDiags()-1 {
		hi = g.NumDiags() - 1
	}
	if hi < lo {
		return nil
	}
	nTr := (rows + ct - 1) / ct
	nTc := (cols + ct - 1) / ct
	// Tile (I,J) holds cell diagonals [ (I+J)*ct, (I+J+2)*ct-2 ]; it can
	// only contain region cells when (I+J)*ct <= hi and its max diagonal
	// reaches lo.
	tLo := 0
	if lo >= 2*ct-1 {
		tLo = (lo - (2*ct - 2) + ct - 1) / ct
		if tLo < 0 {
			tLo = 0
		}
	}
	tHi := hi / ct
	if tHi > nTr+nTc-2 {
		tHi = nTr + nTc - 2
	}
	for t := tLo; t <= tHi; t++ {
		if err := e.runTileDiag(k, g, ct, nTr, nTc, t, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// runTileDiag executes all tiles with I+J == t in parallel and waits.
// A tile-diagonal is the dense special case of a frontier work set: the
// tiles are mutually independent, and runItems provides the barrier.
func (e *Executor) runTileDiag(k kernels.Kernel, g *grid.Grid, ct, nTr, nTc, t, lo, hi int) error {
	iMin := 0
	if t-(nTc-1) > 0 {
		iMin = t - (nTc - 1)
	}
	iMax := t
	if iMax > nTr-1 {
		iMax = nTr - 1
	}
	return e.runItems(iMax-iMin+1, func(idx int) {
		i := iMin + idx
		computeTile(k, g, i*ct, (t-i)*ct, ct, lo, hi)
	})
}

// runItems is the executor's work-set primitive, shared by the dense
// tile-diagonal schedule and the frontier paths: it runs fn(0..n-1)
// across the pool and blocks until all items complete (the inter-step
// barrier). A single item — the wavefront ramp — runs inline to skip
// the barrier cost.
func (e *Executor) runItems(n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if n == 1 || e.workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return nil
	}
	return e.pl.run(n, fn)
}

// computeTile evaluates the cells of the tile with top-left corner
// (r0, c0), restricted to diagonals [lo, hi].
func computeTile(k kernels.Kernel, g *grid.Grid, r0, c0, ct, lo, hi int) {
	rMax := r0 + ct
	if rMax > g.Rows() {
		rMax = g.Rows()
	}
	cMax := c0 + ct
	if cMax > g.Cols() {
		cMax = g.Cols()
	}
	for r := r0; r < rMax; r++ {
		for c := c0; c < cMax; c++ {
			if d := r + c; d < lo || d > hi {
				continue
			}
			k.Compute(g, r, c)
		}
	}
}
