package engine

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/plan"
)

// TestEstimateAllocsConstant pins Estimate's memory to O(1): the only
// allocation is the returned *plan.Plan, at the benchmark size and at a
// side of 2^20 alike, for all-CPU, full-band single-GPU and full-band
// dual-GPU halo-0 plans (the last has one period per diagonal).
func TestEstimateAllocsConstant(t *testing.T) {
	sys := hw.I7_2600K()
	for _, side := range []int{1900, 1 << 20} {
		inst := plan.Instance{Dim: side, TSize: 2000, DSize: 1}
		pars := []plan.Params{
			CPUOnlyParams(8),
			GPUOnlyParams(inst),
			{CPUTile: 1, Band: side - 1, GPUTile: 1, Halo: 0},
		}
		if side == 1900 {
			// BenchmarkEstimateHybrid's plan.
			pars = append(pars, plan.Params{CPUTile: 8, Band: 1500, GPUTile: 1, Halo: 20})
		}
		for _, par := range pars {
			var err error
			allocs := estimateAllocs(func() {
				_, err = Estimate(sys, inst, par, Options{})
			})
			if err != nil {
				t.Fatalf("side %d %v: %v", side, par, err)
			}
			if allocs > 1 {
				t.Errorf("side %d %v: %v allocs/op, want <= 1", side, par, allocs)
			}
		}
	}
}

// estimateAllocs returns the heap allocations one call of f makes inside
// Estimate's call tree, after a warm-up call. testing.AllocsPerRun
// counts mallocs process-wide, and a garbage collection overlapping a
// long run allocates on its own: the mark worker's sudog in gcMarkDone
// and the unique package's per-cycle map cleanup. Sampling every
// allocation with its stack and keeping those under Estimate leaves
// those out.
func estimateAllocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	f()
	before := profiledEstimateAllocs()
	f()
	return profiledEstimateAllocs() - before
}

// profiledEstimateAllocs sums the allocation profile's objects whose
// stack passes through Estimate. Two collections first publish every
// allocation made so far.
func profiledEstimateAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for ok := false; !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if f.Function == "repro/internal/engine.Estimate" {
				total += r.AllocObjects
				break
			}
		}
	}
	return total
}

func collectTileDiags(rows, cols, ct, lo, hi int) (nTiles, cells []int) {
	for n, c := range cpuTileDiags(rows, cols, ct, lo, hi) {
		nTiles = append(nTiles, n)
		cells = append(cells, c)
	}
	return nTiles, cells
}

func TestCPUTileDiagsConserveCells(t *testing.T) {
	// Property: tile-diagonal cell counts sum exactly to the region size.
	f := func(rawDim, rawCt, rawLo, rawHi uint8) bool {
		dim := int(rawDim)%150 + 1
		ct := int(rawCt)%dim + 1
		nd := grid.NumDiags(dim, dim)
		lo := int(rawLo) % nd
		hi := int(rawHi) % nd
		if hi < lo {
			lo, hi = hi, lo
		}
		sum := 0
		for n, cells := range cpuTileDiags(dim, dim, ct, lo, hi) {
			if n < 1 {
				return false
			}
			sum += cells
		}
		return sum == grid.CellsInDiagRange(dim, dim, lo, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCPUTileDiagsEmptyRegion(t *testing.T) {
	if n, cells := collectTileDiags(100, 100, 4, 5, 4); n != nil {
		t.Errorf("empty region must visit nothing, got tiles %v cells %v", n, cells)
	}
}

func TestCPUTileDiagsUntiled(t *testing.T) {
	// ct=1: one tile-diagonal per cell-diagonal, NTiles = diagonal length.
	dim := 10
	nTiles, cells := collectTileDiags(dim, dim, 1, 0, grid.NumDiags(dim, dim)-1)
	if len(nTiles) != grid.NumDiags(dim, dim) {
		t.Fatalf("got %d tile-diagonals, want %d", len(nTiles), grid.NumDiags(dim, dim))
	}
	for i := range nTiles {
		if nTiles[i] != grid.DiagLen(dim, dim, i) || cells[i] != grid.DiagLen(dim, dim, i) {
			t.Fatalf("tile-diag %d = %d tiles, %d cells, want both %d",
				i, nTiles[i], cells[i], grid.DiagLen(dim, dim, i))
		}
	}
}
