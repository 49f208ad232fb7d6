// Package engine executes three-phase wavefront plans on the modeled
// heterogeneous systems. It provides two equivalent views of a run:
//
//   - Estimate: a fast analytic walk of the plan that returns virtual time
//     and a cost breakdown without touching any data. The exhaustive
//     search evaluates hundreds of thousands of configurations through
//     this path, so it streams: it walks the GPU schedule (periods,
//     devices, launches) and the CPU tile-diagonals once, accumulating
//     as it goes, in O(1) memory — its only allocation is the returned
//     plan, at any instance size. Each device's launch cost is priced
//     once per SIMT pass count (a launch's cost depends on its points
//     only through hw.GPUModel.PaddedPoints) and each partition cut
//     once per period.
//   - Simulate: a functional discrete-event simulation through the simcl
//     runtime that computes real cell values while accumulating exactly
//     the same modeled costs. It walks the same schedule and alone
//     collects the row segments its kernel bodies compute. Tests assert
//     that both paths agree, so the cheap path is trustworthy.
//
// Both derive every duration from the hw cost models; the choreography
// (phases, per-period device lockstep, partition cuts and halo overlap
// rows, swap schedule, transfer sizes) is defined once in this package,
// in the gpuSchedule helpers both paths call. The
// materialized form it replaced (whole period and tile-diagonal lists
// built up front) lives on only as a test oracle that Estimate must
// match bit for bit.
package engine

import (
	"context"
	"fmt"
	"iter"
	"math"

	"repro/internal/cpuexec"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/simcl"
	"repro/internal/telemetry"
)

// SerialTile is the tile side used by the optimized sequential baseline.
const SerialTile = 8

// DefaultThresholdNs is the paper's 90-second exploration cutoff.
const DefaultThresholdNs = 90e9

// Options control an estimate.
type Options struct {
	// ThresholdNs censors runs longer than this; 0 disables censoring.
	ThresholdNs float64
	// GPUs, when > 2, widens a multi-GPU configuration (halo >= 0) to
	// that many devices — the paper's future-work extension beyond two
	// GPUs. It is clamped to the system's device count and ignored for
	// single-GPU and all-CPU configurations.
	GPUs int
	// CollectTrace records a command timeline during Simulate (ignored by
	// Estimate); the trace is returned in Result.Trace.
	CollectTrace bool
}

// Breakdown itemizes where the virtual time went.
type Breakdown struct {
	Phase1Ns float64 // leading CPU triangle
	GPUNs    float64 // whole GPU phase including transfers and swaps
	Phase3Ns float64 // trailing CPU triangle

	StartupNs float64 // device context creation and build
	LaunchNs  float64 // accumulated kernel launch overhead
	ComputeNs float64 // on-device compute including barrier steps
	XferNs    float64 // input + output transfers
	SwapNs    float64 // halo exchange transfers

	Kernels         int
	Swaps           int
	RedundantPoints int
	// FrontierSteps is the number of barrier-separated wavefront steps
	// of the executed schedule. The modeled three-phase run sweeps the
	// anti-diagonal frontier, so it equals the diagonal count; consumers
	// must use it (not grid.NumDiags recomputed from the shape) for
	// progress accounting, because irregular frontier executions report
	// their own, generally smaller, step counts.
	FrontierSteps int
}

// Result is the outcome of one modeled run.
type Result struct {
	// RTimeNs is the end-to-end virtual runtime.
	RTimeNs float64
	// Censored is set when the run exceeded Options.ThresholdNs and was
	// cut off (the paper's 90 s rule); RTimeNs then holds the threshold.
	Censored bool
	Plan     *plan.Plan
	// Trace holds the command timeline when Options.CollectTrace was set
	// on a Simulate call.
	Trace *simcl.Trace
	Breakdown
}

// RTimeSec returns the runtime in seconds.
func (r Result) RTimeSec() float64 { return r.RTimeNs / 1e9 }

// validate checks that the system can satisfy the plan's device demands.
func validate(sys hw.System, par plan.Params) error {
	need := par.GPUCount()
	if need > sys.MaxGPUs() {
		return fmt.Errorf("engine: config needs %d GPU(s) but %s has %d usable",
			need, sys.Name, sys.MaxGPUs())
	}
	return nil
}

// cpuPhaseNs models a tiled parallel CPU phase over cell-diagonals
// [lo, hi]: each tile-diagonal contributes its cells divided by the
// available parallelism (capped by the tile wavefront width) plus one
// barrier.
func cpuPhaseNs(sys hw.System, inst plan.Instance, ct, lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	rows, cols := inst.Shape()
	// Masked instances only pay for their live fraction of each
	// tile-diagonal: dead cells are no-ops (skipped entirely on the
	// frontier path), so charging the full rectangle would overestimate
	// triangular and sparse workloads.
	per := sys.CPU.PointNs(inst.TSize, ct, inst.ElemBytes()) * inst.LiveFrac()
	total := 0.0
	for nTiles, cells := range cpuTileDiags(rows, cols, ct, lo, hi) {
		p := math.Min(float64(nTiles), sys.CPU.EffParallel)
		total += float64(cells)*per/p + sys.CPU.TileBarrierNs
	}
	return total
}

// cpuTileDiags visits, in order, the tile-diagonals of the CPU phase
// covering cell-diagonals [lo, hi] of a rows x cols grid with square
// tiles of side ct, yielding each one's tile count and cell count.
// Tile-diagonal t groups the cells whose diagonal index lies in
// [t*ct, (t+1)*ct-1] — these spans partition the diagonal space, so the
// cell counts sum exactly to the region size. The tile count is the
// width of the tile wavefront at t, which bounds the parallelism
// available to the executor. Tile-diagonals without cells are skipped.
func cpuTileDiags(rows, cols, ct, lo, hi int) iter.Seq2[int, int] {
	return func(yield func(nTiles, cells int) bool) {
		if hi < lo {
			return
		}
		nTr := (rows + ct - 1) / ct
		nTc := (cols + ct - 1) / ct
		for t := lo / ct; t <= hi/ct; t++ {
			cells := grid.CellsInDiagRange(rows, cols, max(t*ct, lo), min((t+1)*ct-1, hi))
			if cells == 0 {
				continue
			}
			n := max(min(t+1, nTr+nTc-1-t, nTr, nTc), 1)
			if !yield(n, cells) {
				return
			}
		}
	}
}

// SerialNs returns the optimized sequential baseline: a single-core sweep
// with the serial-best tile size and no synchronization.
func SerialNs(sys hw.System, inst plan.Instance) float64 {
	ct := SerialTile
	if ct > inst.MinSide() {
		ct = inst.MinSide()
	}
	per := sys.CPU.PointNs(inst.TSize, ct, inst.ElemBytes())
	return float64(inst.WorkCells()) * per
}

// Measure returns the modeled runtime of actually executing a tuning
// decision on sys — the stand-in for wall-clock timing a real run, used
// by the job executor: the optimized sequential baseline when serial is
// set, otherwise the uncensored hybrid estimate of par. It also returns
// the executed schedule's wavefront step count: the modeled run's
// FrontierSteps for a hybrid execution, and 1 for the serial baseline (a
// single uninterrupted row-major sweep has no inter-step barriers).
// Progress and throughput reporting must derive step totals from here
// rather than recomputing NumDiags from the shape, which misstates
// irregular runs.
//
// The measurement runs in an engine.measure trace span attached to ctx's
// span tree, annotated with the executed shape and schedule (serial vs
// hybrid, modeled time, step count). ctx carries only telemetry, not
// cancellation — the engine's analytic walk is not interruptible.
func Measure(ctx context.Context, sys hw.System, inst plan.Instance, serial bool, par plan.Params) (ns float64, steps int, err error) {
	_, span := telemetry.StartSpan(ctx, "engine.measure")
	if span != nil {
		rows, cols := inst.Shape()
		span.Annotate("system", sys.Name).
			Annotate("shape", fmt.Sprintf("%dx%d", rows, cols)).
			Annotate("serial", serial)
	}
	if serial {
		ns, steps = SerialNs(sys, inst), 1
	} else {
		var res Result
		if res, err = Estimate(sys, inst, par, Options{}); err == nil {
			ns, steps = res.RTimeNs, res.FrontierSteps
		}
	}
	if span != nil {
		if err == nil {
			span.Annotate("modeled_ns", fmt.Sprintf("%.0f", ns)).Annotate("steps", steps)
		} else {
			span.Annotate("error", err)
		}
		span.End()
	}
	return ns, steps, err
}

// gpuSchedule is the device-side choreography of the GPU phase: the
// per-device transfer sizes and the lockstep periods of kernel launches
// separated by halo swaps. Estimate and Simulate walk it the same way —
// periodAt for each period, part for each device's share of it,
// launchPoints and devPart.rows for each launch — so the analytic and
// functional paths visit identical launches. Nothing is materialized:
// a walk runs in O(1) memory at any instance size.
type gpuSchedule struct {
	rows, cols int
	gLo, gHi   int // the offloaded diagonals
	nGPU       int
	xferIn     int // input bytes per device
	outCells   int // cells of the band, returned to the host
	elem       int
	swapByte   int
	period     int // diagonals per lockstep period
	tile       int // diagonals per kernel launch (the gpu-tile)
	syncSteps  int
	inflate    float64
	liveFrac   float64
	tsize      float64
	dsize      int
}

// gpuPeriod is one lockstep period: every device runs its launches over
// diagonals [ds, ds+m) before the optional halo exchange that follows.
type gpuPeriod struct {
	ds, m int
	// a0 and l0 are the first row and length of the period's first
	// diagonal, from which the device partition cuts are taken.
	a0, l0 int
	// swapAfter is true when a halo exchange follows the period; each of
	// the nGPU-1 partition boundaries then moves swapByte bytes through
	// the host (2 transfers per boundary).
	swapAfter bool
}

type diagSeg struct {
	d, rowLo, rowHi int // rows [rowLo, rowHi] of diagonal d; empty if lo>hi
}

// newGPUSchedule sets up the phase-2 choreography for a plan; ok is
// false when the plan has no GPU phase. wantGPUs > 2 widens a dual-GPU
// configuration to that many devices.
func newGPUSchedule(pl *plan.Plan, wantGPUs int) (s gpuSchedule, ok bool) {
	nGPU := pl.Par.GPUCount()
	if nGPU == 2 && wantGPUs > 2 {
		nGPU = wantGPUs
	}
	if nGPU == 0 || pl.GPUDiags() == 0 {
		return s, false
	}
	rows, cols := pl.Inst.Shape()
	s = gpuSchedule{
		rows: rows, cols: cols, gLo: pl.GLo, gHi: pl.GHi, nGPU: nGPU,
		elem:     pl.Inst.ElemBytes(),
		outCells: pl.GPUCells(),
		period:   pl.GPUDiags(),
		tile:     pl.Par.GPUTile,
		inflate:  1,
		liveFrac: pl.Inst.LiveFrac(),
		tsize:    pl.Inst.TSize,
		dsize:    pl.Inst.DSize,
	}
	// Input: the two predecessor diagonals feeding the band, split across
	// devices.
	s.xferIn = (grid.DiagLen(rows, cols, pl.GLo-1) + grid.DiagLen(rows, cols, pl.GLo-2)) * s.elem / nGPU
	if nGPU >= 2 {
		s.period = pl.SwapPeriod()
		s.swapByte = max(pl.Par.Halo, 1) * s.elem
	}
	if g := s.tile; g > 1 {
		s.inflate = float64(2*g-1) / float64(g)
		s.syncSteps = 2*g - 1
	}
	return s, true
}

// xferOut returns the output bytes of device dev: the full band region
// returns to the host, and the last device absorbs the rounding
// remainder.
func (s *gpuSchedule) xferOut(dev int) int {
	share := s.outCells / s.nGPU
	if dev == s.nGPU-1 {
		share = s.outCells - (s.nGPU-1)*share
	}
	return share * s.elem
}

// periodAt returns the lockstep period starting at diagonal ds. The
// periods of a walk start at gLo, gLo+period, ... up to gHi.
func (s *gpuSchedule) periodAt(ds int) gpuPeriod {
	m := min(s.period, s.gHi-ds+1)
	return gpuPeriod{
		ds: ds, m: m,
		a0:        grid.DiagStartRow(s.rows, s.cols, ds),
		l0:        grid.DiagLen(s.rows, s.cols, ds),
		swapAfter: s.nGPU >= 2 && ds+m <= s.gHi,
	}
}

// devPart is one device's share of one period: the rows between its
// partition cuts, taken from the period's first diagonal.
type devPart struct {
	ds, m          int
	rowMax, colMax int // the grid's last row and column
	// cutLo and cutHi bound the device's rows [cutLo, cutHi) before the
	// halo overlap; cutLo is 0 for the first device and cutHi MaxInt for
	// the last, so those edges follow the diagonal itself.
	cutLo, cutHi int
}

// part returns device dev's share of period p. cutLo is the device's
// lower partition cut: 0 for device 0, otherwise the previous device's
// cutHi, so each cut is computed once per period. Device j's share
// starts at row a0 + j*l0/nGPU.
func (s *gpuSchedule) part(p gpuPeriod, dev, cutLo int) devPart {
	cutHi := math.MaxInt
	if dev < s.nGPU-1 {
		cutHi = p.a0 + (dev+1)*p.l0/s.nGPU
	}
	return devPart{ds: p.ds, m: p.m, rowMax: s.rows - 1, colMax: s.cols - 1, cutLo: cutLo, cutHi: cutHi}
}

// rows returns the inclusive row range the device computes on diagonal
// d = ds+k of its period (empty when lo > hi). Diagonal d spans rows
// [max(0, d-colMax), min(d, rowMax)], the range grid.DiagStartRow
// and grid.DiagLen give for any diagonal of the band, clipped to
// the device's cuts. A device below a partition boundary additionally computes a
// shrinking overlap of m-1-k rows above its cut (the redundant halo
// computation of Section 2.1), because the wavefront dependencies point
// towards lower rows. With one device the whole diagonal is returned.
func (dp *devPart) rows(k int) (lo, hi int) {
	d := dp.ds + k
	return max(d-dp.colMax, 0, dp.cutLo-(dp.m-1-k)), min(d, dp.rowMax, dp.cutHi-1)
}

// launchPoints returns the modeled point count of the device's kernel
// launch covering diagonals [c0, c0+tile) of its period, or 0 when the
// launch covers no cells and is skipped.
func (s *gpuSchedule) launchPoints(dp *devPart, c0 int) int {
	points := 0
	for k := c0; k < min(c0+s.tile, dp.m); k++ {
		if lo, hi := dp.rows(k); hi >= lo {
			points += hi - lo + 1
		}
	}
	if s.liveFrac < 1 && points > 0 {
		// Charge the launch for the live share of its covered cells.
		// Simulate's row segments still span every cell — masked
		// kernels write their dead region's zeros, so the simulated
		// matrix stays identical to a dense sweep — but timing reflects
		// real work only.
		points = max(int(math.Round(float64(points)*s.liveFrac)), 1)
	}
	return points
}

// launchMemo caches one device's launch cost for one SIMT pass count.
// hw.LaunchDurationNs depends on the point count only through
// GPUModel.PaddedPoints, so every launch of lo+1 .. lo+w points (one
// pass count on a device of width w) costs exactly the same. hw stays
// the single source of truth: it is consulted only when a launch falls
// outside the cached pass count.
type launchMemo struct {
	gpu     *hw.GPUModel // the device the entry was priced on; nil when empty
	lo, w   int
	dur     float64 // hw.LaunchDurationNs
	compute float64 // dur less the launch overhead
}

// holds reports whether the entry prices a launch of points on gpu.
func (lm *launchMemo) holds(gpu *hw.GPUModel, points int) bool {
	return uint(points-lm.lo-1) < uint(lm.w) && lm.gpu == gpu
}

// price reprices the entry for a launch of points on gpu through
// hw.LaunchDurationNs, covering that launch's whole pass count.
func (lm *launchMemo) price(s *gpuSchedule, cpu *hw.CPUModel, gpu *hw.GPUModel, points int) {
	lm.gpu, lm.w = gpu, gpu.Width()
	lm.lo = (points - 1) / lm.w * lm.w
	lm.dur = gpu.LaunchDurationNs(*cpu, points, s.tsize, s.dsize, s.syncSteps, s.inflate)
	lm.compute = lm.dur - gpu.LaunchNs
}

// Estimate models a run of inst with parameters par on sys and returns
// its virtual time and breakdown without computing any data.
func Estimate(sys hw.System, inst plan.Instance, par plan.Params, opts Options) (Result, error) {
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

	res.Phase1Ns = cpuPhaseNs(sys, inst, par.CPUTile, pl.P1Lo, pl.P1Hi)
	res.RTimeNs += res.Phase1Ns
	if over() {
		return res, nil
	}

	if sch, ok := newGPUSchedule(pl, opts.GPUs); ok {
		gpuStart := res.RTimeNs
		// Startup is concurrent across devices; identical models per
		// system make max == single value, but take max for generality.
		var startup float64
		for dev := 0; dev < sch.nGPU; dev++ {
			startup = math.Max(startup, sys.GPUs[dev].StartupNs)
			res.StartupNs += sys.GPUs[dev].StartupNs
		}
		res.RTimeNs += startup
		// Input transfers serialize on the link.
		for dev := 0; dev < sch.nGPU; dev++ {
			x := sys.Link.XferNs(sch.xferIn)
			res.XferNs += x
			res.RTimeNs += x
		}
		swapNs := float64(2*(sch.nGPU-1)) * sys.Link.XferNs(sch.swapByte)
		// One memo per device, in a fixed array so it stays on the
		// stack; devices past its length share slots, which only costs
		// repricing, never correctness (each entry names its device).
		var memo [4]launchMemo
		for ds := sch.gLo; ds <= sch.gHi; ds += sch.period {
			p := sch.periodAt(ds)
			var span float64
			cut := 0
			for dev := 0; dev < sch.nGPU; dev++ {
				gpu := &sys.GPUs[dev]
				lm := &memo[dev%len(memo)]
				dp := sch.part(p, dev, cut)
				cut = dp.cutHi
				// Register copies of the breakdown sums: the adds run in
				// the same order, so the totals are bit-identical.
				var devNs float64
				kernels, launchNs, computeNs := res.Kernels, res.LaunchNs, res.ComputeNs
				for c0 := 0; c0 < p.m; c0 += sch.tile {
					points := sch.launchPoints(&dp, c0)
					if points == 0 {
						continue
					}
					if !lm.holds(gpu, points) {
						lm.price(&sch, &sys.CPU, gpu, points)
					}
					devNs += lm.dur
					kernels++
					launchNs += gpu.LaunchNs
					computeNs += lm.compute
				}
				res.Kernels, res.LaunchNs, res.ComputeNs = kernels, launchNs, computeNs
				span = max(span, devNs)
			}
			res.RTimeNs += span
			if p.swapAfter {
				res.SwapNs += swapNs
				res.RTimeNs += swapNs
				res.Swaps++
			}
			if over() {
				return res, nil
			}
		}
		for dev := 0; dev < sch.nGPU; dev++ {
			x := sys.Link.XferNs(sch.xferOut(dev))
			res.XferNs += x
			res.RTimeNs += x
		}
		res.RedundantPoints = pl.RedundantPoints()
		res.GPUNs = res.RTimeNs - gpuStart
		if over() {
			return res, nil
		}
	}

	res.Phase3Ns = cpuPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi)
	res.RTimeNs += res.Phase3Ns
	over()
	return res, nil
}

// Simulate executes a functional run of kernel k over the shape of inst
// with parameters par on the modeled system: real cell values are
// computed via the simulated OpenCL runtime and CPU phases, and the
// returned result carries the virtual time of the discrete-event
// simulation. The granularity parameters (TSize, DSize) are always taken
// from the kernel; opts may widen to more than two GPUs or collect a
// command trace.
func Simulate(sys hw.System, inst plan.Instance, k kernels.Kernel, par plan.Params, opts Options) (Result, *grid.Grid, error) {
	inst.TSize, inst.DSize = k.TSize(), k.DSize()
	if err := validate(sys, par); err != nil {
		return Result{}, nil, err
	}
	if opts.GPUs > len(sys.GPUs) {
		return Result{}, nil, fmt.Errorf("engine: %d GPUs requested but %s has %d",
			opts.GPUs, sys.Name, len(sys.GPUs))
	}
	pl, err := plan.Build(inst, par)
	if err != nil {
		return Result{}, nil, err
	}
	res := Result{Plan: pl}
	res.FrontierSteps = inst.NumDiags()
	rows, cols := inst.Shape()
	g := grid.New(rows, cols, k.DSize())
	p := simcl.NewPlatform(sys)
	p.Functional = true
	if opts.CollectTrace {
		p.Trace = &simcl.Trace{}
		res.Trace = p.Trace
	}
	eng := p.Eng

	sch, gpuPhase := newGPUSchedule(pl, opts.GPUs)
	var steps []func(next func())

	// Phase 1: leading CPU triangle.
	if pl.P1Hi >= pl.P1Lo {
		dur := cpuPhaseNs(sys, inst, par.CPUTile, pl.P1Lo, pl.P1Hi)
		res.Phase1Ns = dur
		steps = append(steps, func(next func()) {
			p.HostCompute(dur, func() {
				// A dense diagonal frontier cannot dead-end, so the
				// frontier run never errors here.
				_ = cpuexec.RunSerialFrontier(k, g, grid.NewDiagRangeFrontier(rows, cols, pl.P1Lo, pl.P1Hi))
				next()
			})
		})
	}

	// Phase 2: the offloaded band.
	if gpuPhase {
		var gpuT0 float64
		steps = append(steps,
			func(next func()) {
				gpuT0 = eng.Now()
				arrive := eng.Barrier(sch.nGPU, next)
				for dev := 0; dev < sch.nGPU; dev++ {
					p.Devs[dev].Start(arrive)
				}
			},
			func(next func()) {
				arrive := eng.Barrier(sch.nGPU, next)
				for dev := 0; dev < sch.nGPU; dev++ {
					p.Devs[dev].EnqueueXfer(sch.xferIn, arrive)
				}
			})
		type devLaunch struct {
			dev, points int
			segs        []diagSeg
		}
		for ds := sch.gLo; ds <= sch.gHi; ds += sch.period {
			period := sch.periodAt(ds)
			var launches []devLaunch
			cut := 0
			for dev := 0; dev < sch.nGPU; dev++ {
				dp := sch.part(period, dev, cut)
				cut = dp.cutHi
				for c0 := 0; c0 < period.m; c0 += sch.tile {
					l := devLaunch{dev: dev, points: sch.launchPoints(&dp, c0)}
					if l.points == 0 {
						continue
					}
					for k := c0; k < min(c0+sch.tile, period.m); k++ {
						if lo, hi := dp.rows(k); hi >= lo {
							l.segs = append(l.segs, diagSeg{d: ds + k, rowLo: lo, rowHi: hi})
						}
					}
					launches = append(launches, l)
				}
			}
			steps = append(steps, func(next func()) {
				arrive := eng.Barrier(len(launches), next)
				for _, l := range launches {
					segs := l.segs
					p.Devs[l.dev].EnqueueKernel(simcl.KernelReq{
						Points:    l.points,
						TSize:     inst.TSize,
						DSize:     inst.DSize,
						SyncSteps: sch.syncSteps,
						Inflate:   sch.inflate,
						Body: func() {
							for _, s := range segs {
								for r := s.rowLo; r <= s.rowHi; r++ {
									k.Compute(g, r, s.d-r)
								}
							}
						},
					}, arrive)
				}
			})
			if period.swapAfter {
				steps = append(steps, func(next func()) {
					// At each partition boundary the upper device's edge
					// rows go to the host and on to the device below; the
					// boundary exchanges chain on the shared link.
					res.Swaps++
					var chain func(b int)
					chain = func(b int) {
						if b >= sch.nGPU-1 {
							next()
							return
						}
						p.Devs[b].EnqueueXfer(sch.swapByte, func() {
							p.Devs[b+1].EnqueueXfer(sch.swapByte, func() { chain(b + 1) })
						})
					}
					chain(0)
				})
			}
		}
		steps = append(steps, func(next func()) {
			arrive := eng.Barrier(sch.nGPU, func() {
				res.GPUNs = eng.Now() - gpuT0
				next()
			})
			for dev := 0; dev < sch.nGPU; dev++ {
				p.Devs[dev].EnqueueXfer(sch.xferOut(dev), arrive)
			}
		})
	}

	// Phase 3: trailing CPU triangle.
	if pl.P3Hi >= pl.P3Lo {
		dur := cpuPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi)
		res.Phase3Ns = dur
		steps = append(steps, func(next func()) {
			p.HostCompute(dur, func() {
				_ = cpuexec.RunSerialFrontier(k, g, grid.NewDiagRangeFrontier(rows, cols, pl.P3Lo, pl.P3Hi))
				next()
			})
		})
	}

	eng.Series(steps, nil)
	res.RTimeNs = eng.Run()

	// Fold device statistics into the breakdown.
	if gpuPhase {
		for dev := 0; dev < sch.nGPU; dev++ {
			st := p.Devs[dev].Stats
			res.Kernels += st.Kernels
			res.StartupNs += st.StartupNs
			res.LaunchNs += st.LaunchNs
			res.ComputeNs += st.KernelNs
		}
		for dev := 0; dev < sch.nGPU; dev++ {
			res.XferNs += sys.Link.XferNs(sch.xferIn) + sys.Link.XferNs(sch.xferOut(dev))
		}
		res.SwapNs = float64(2*res.Swaps*(sch.nGPU-1)) * sys.Link.XferNs(sch.swapByte)
		res.RedundantPoints = pl.RedundantPoints()
	}
	return res, g, nil
}

// Reference computes a rows x cols grid serially on the host, for
// verifying simulated results.
func Reference(rows, cols int, k kernels.Kernel) *grid.Grid {
	g := grid.New(rows, cols, k.DSize())
	cpuexec.RunSerial(k, g)
	return g
}

// CPUOnlyParams returns the all-CPU configuration with the given tile.
func CPUOnlyParams(ct int) plan.Params {
	return plan.Params{CPUTile: ct, Band: -1, GPUTile: 1, Halo: -1}
}

// GPUOnlyParams returns the configuration that offloads every diagonal
// of inst to a single GPU, for an instance of any shape.
func GPUOnlyParams(inst plan.Instance) plan.Params {
	return plan.Params{CPUTile: 1, Band: inst.MaxUsefulBand(), GPUTile: 1, Halo: -1}
}
