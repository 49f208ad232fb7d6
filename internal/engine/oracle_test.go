package engine

// The materialized form of the cost model, kept as a differential
// oracle for the streaming Estimate: it builds the whole GPU schedule
// (a period list of per-device launch lists, with a partition-cut slice
// per period) and the CPU tile-diagonal list up front, then sums over
// them. The streaming walk visits the same periods, launches and
// tile-diagonals in the same order, so the two must agree bit for bit.

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/plan"
)

// oracleTileDiag describes one tile-diagonal of a CPU phase: NTiles tiles
// that can run in parallel, jointly covering Cells cells.
type oracleTileDiag struct {
	NTiles int
	Cells  int
}

// oracleCPUTileDiags enumerates the tile-diagonals of the CPU phase
// covering cell-diagonals [lo, hi] of a rows x cols grid with square
// tiles of side ct.
func oracleCPUTileDiags(rows, cols, ct, lo, hi int) []oracleTileDiag {
	if hi < lo {
		return nil
	}
	nTr := (rows + ct - 1) / ct
	nTc := (cols + ct - 1) / ct
	tLo, tHi := lo/ct, hi/ct
	out := make([]oracleTileDiag, 0, tHi-tLo+1)
	for t := tLo; t <= tHi; t++ {
		cLo, cHi := t*ct, (t+1)*ct-1
		if cLo < lo {
			cLo = lo
		}
		if cHi > hi {
			cHi = hi
		}
		cells := grid.CellsInDiagRange(rows, cols, cLo, cHi)
		if cells == 0 {
			continue
		}
		n := min(min(t+1, nTr+nTc-1-t), min(nTr, nTc))
		if n < 1 {
			n = 1
		}
		out = append(out, oracleTileDiag{NTiles: n, Cells: cells})
	}
	return out
}

func oracleCPUPhaseNs(sys hw.System, inst plan.Instance, ct, lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	rows, cols := inst.Shape()
	per := sys.CPU.PointNs(inst.TSize, ct, inst.ElemBytes()) * inst.LiveFrac()
	total := 0.0
	for _, td := range oracleCPUTileDiags(rows, cols, ct, lo, hi) {
		p := math.Min(float64(td.NTiles), sys.CPU.EffParallel)
		total += float64(td.Cells)*per/p + sys.CPU.TileBarrierNs
	}
	return total
}

type oracleSchedule struct {
	nGPU     int
	xferIn   []int // bytes per device
	xferOut  []int
	swapByte int
	periods  []oraclePeriod
}

type oraclePeriod struct {
	launches  [][]oracleLaunch // launches[dev] in launch order
	swapAfter bool
}

type oracleLaunch struct {
	points    int
	syncSteps int
	inflate   float64
}

func oracleGPUSchedule(pl *plan.Plan, wantGPUs int) *oracleSchedule {
	nGPU := pl.Par.GPUCount()
	if nGPU == 2 && wantGPUs > 2 {
		nGPU = wantGPUs
	}
	if nGPU == 0 || pl.GPUDiags() == 0 {
		return nil
	}
	inst := pl.Inst
	rows, cols := inst.Shape()
	elem := inst.ElemBytes()
	sch := &oracleSchedule{nGPU: nGPU, xferIn: make([]int, nGPU), xferOut: make([]int, nGPU)}

	inBytes := (grid.DiagLen(rows, cols, pl.GLo-1) + grid.DiagLen(rows, cols, pl.GLo-2)) * elem
	for dev := 0; dev < nGPU; dev++ {
		sch.xferIn[dev] = inBytes / nGPU
	}
	outCells := pl.GPUCells()
	for dev := 0; dev < nGPU; dev++ {
		sch.xferOut[dev] = outCells / nGPU * elem
	}
	sch.xferOut[nGPU-1] = (outCells - (nGPU-1)*(outCells/nGPU)) * elem

	h := pl.Par.Halo
	period := pl.GPUDiags()
	if nGPU >= 2 {
		period = pl.SwapPeriod()
		swapElems := h
		if swapElems < 1 {
			swapElems = 1
		}
		sch.swapByte = swapElems * elem
	}
	g := pl.Par.GPUTile
	inflate := 1.0
	sync := 0
	if g > 1 {
		inflate = float64(2*g-1) / float64(g)
		sync = 2*g - 1
	}

	for ds := pl.GLo; ds <= pl.GHi; ds += period {
		m := period
		if ds+m-1 > pl.GHi {
			m = pl.GHi - ds + 1
		}
		p := oraclePeriod{launches: make([][]oracleLaunch, nGPU)}
		p.swapAfter = nGPU >= 2 && ds+m <= pl.GHi
		a0 := grid.DiagStartRow(rows, cols, ds)
		l0 := grid.DiagLen(rows, cols, ds)
		bounds := make([]int, nGPU+1)
		for j := 0; j <= nGPU; j++ {
			bounds[j] = a0 + j*l0/nGPU
		}
		for dev := 0; dev < nGPU; dev++ {
			for c0 := 0; c0 < m; c0 += g {
				cn := g
				if c0+cn > m {
					cn = m - c0
				}
				spec := oracleLaunch{inflate: inflate}
				if g > 1 {
					spec.syncSteps = sync
				}
				for k := c0; k < c0+cn; k++ {
					lo, hi := oracleDevRows(rows, cols, ds+k, dev, nGPU, bounds, m-1-k)
					if hi < lo {
						continue
					}
					spec.points += hi - lo + 1
				}
				if lf := inst.LiveFrac(); lf < 1 && spec.points > 0 {
					scaled := int(math.Round(float64(spec.points) * lf))
					if scaled < 1 {
						scaled = 1
					}
					spec.points = scaled
				}
				if spec.points > 0 {
					p.launches[dev] = append(p.launches[dev], spec)
				}
			}
		}
		sch.periods = append(sch.periods, p)
	}
	return sch
}

func oracleDevRows(rows, cols, d, dev, nGPU int, bounds []int, ov int) (lo, hi int) {
	a := grid.DiagStartRow(rows, cols, d)
	b := a + grid.DiagLen(rows, cols, d) - 1
	if nGPU == 1 {
		return a, b
	}
	if dev == 0 {
		lo = a
	} else {
		lo = bounds[dev] - ov
		if lo < a {
			lo = a
		}
	}
	if dev == nGPU-1 {
		hi = b
	} else {
		hi = bounds[dev+1] - 1
		if hi > b {
			hi = b
		}
	}
	return lo, hi
}

// estimateMaterialized is Estimate over the materialized schedule.
func estimateMaterialized(sys hw.System, inst plan.Instance, par plan.Params, opts Options) (Result, error) {
	if err := validate(sys, par); err != nil {
		return Result{}, err
	}
	if opts.GPUs > len(sys.GPUs) {
		return Result{}, fmt.Errorf("engine: %d GPUs requested but %s has %d",
			opts.GPUs, sys.Name, len(sys.GPUs))
	}
	pl, err := plan.Build(inst, par)
	if err != nil {
		return Result{}, err
	}
	res := Result{Plan: pl}
	res.FrontierSteps = inst.NumDiags()
	over := func() bool {
		if opts.ThresholdNs > 0 && res.RTimeNs > opts.ThresholdNs {
			res.RTimeNs = opts.ThresholdNs
			res.Censored = true
			return true
		}
		return false
	}

	res.Phase1Ns = oracleCPUPhaseNs(sys, inst, par.CPUTile, pl.P1Lo, pl.P1Hi)
	res.RTimeNs += res.Phase1Ns
	if over() {
		return res, nil
	}

	if sch := oracleGPUSchedule(pl, opts.GPUs); sch != nil {
		gpuStart := res.RTimeNs
		var startup float64
		for dev := 0; dev < sch.nGPU; dev++ {
			startup = math.Max(startup, sys.GPUs[dev].StartupNs)
			res.StartupNs += sys.GPUs[dev].StartupNs
		}
		res.RTimeNs += startup
		for dev := 0; dev < sch.nGPU; dev++ {
			x := sys.Link.XferNs(sch.xferIn[dev])
			res.XferNs += x
			res.RTimeNs += x
		}
		for _, p := range sch.periods {
			var span float64
			for dev := 0; dev < sch.nGPU; dev++ {
				var devNs float64
				for _, l := range p.launches[dev] {
					dur := sys.GPUs[dev].LaunchDurationNs(sys.CPU, l.points, inst.TSize,
						inst.DSize, l.syncSteps, l.inflate)
					devNs += dur
					res.Kernels++
					res.LaunchNs += sys.GPUs[dev].LaunchNs
					res.ComputeNs += dur - sys.GPUs[dev].LaunchNs
				}
				span = math.Max(span, devNs)
			}
			res.RTimeNs += span
			if p.swapAfter {
				s := float64(2*(sch.nGPU-1)) * sys.Link.XferNs(sch.swapByte)
				res.SwapNs += s
				res.RTimeNs += s
				res.Swaps++
			}
			if over() {
				return res, nil
			}
		}
		for dev := 0; dev < sch.nGPU; dev++ {
			x := sys.Link.XferNs(sch.xferOut[dev])
			res.XferNs += x
			res.RTimeNs += x
		}
		res.RedundantPoints = pl.RedundantPoints()
		res.GPUNs = res.RTimeNs - gpuStart
		if over() {
			return res, nil
		}
	}

	res.Phase3Ns = oracleCPUPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi)
	res.RTimeNs += res.Phase3Ns
	over()
	return res, nil
}
