// Package wavefront is the public API of the reproduction of "Autotuning
// Wavefront Applications for Multicore Multi-GPU Hybrid Architectures"
// (Mohanty and Cole, PMAM '14, co-located with PPoPP 2014,
// DOI 10.1145/2560683.2560689).
//
// It exposes six capabilities:
//
//   - the wavefront pattern library: define a Kernel and run it natively
//     on the host CPU, serially or tile-parallel (RunSerial, RunParallel);
//   - the modeled heterogeneous platforms of the paper's Table 4 and the
//     three-phase hybrid execution strategy on them (Estimate, Simulate);
//   - the exhaustive tuning-space exploration of Table 3 (Exhaustive);
//   - the machine-learned autotuner: train on the synthetic application,
//     deploy on unseen applications (Train, Tuner.Predict);
//   - the application registry: a catalog of named workloads — the
//     paper's four plus affine-gap alignment, LCS, DTW, Nussinov
//     folding and morphological reconstruction — that the daemon and
//     CLIs resolve by name, extensible with custom kernels (RegisterApp,
//     AppByName, NewAppKernel);
//   - the serving layer: a concurrency-safe plan cache and the HTTP
//     tuning daemon behind cmd/waved (NewPlanCache, NewTuningServer).
//
// Every shape is given as rows x cols (NewGrid, InstanceOf): the paper's
// square dim x dim experiments are the rows == cols case, and
// rectangular grids are the natural shape for aligning two sequences of
// unequal length, where the anti-diagonal parallelism profile is
// trapezoidal rather than triangular. Every execution path (serial,
// tiled-parallel, estimator, simulator, exhaustive search) accepts both.
//
// The types are aliases of the internal implementation packages, so the
// public surface stays small while examples and downstream code never
// import repro/internal/... directly.
package wavefront

import (
	"time"

	"repro/internal/core"
	"repro/internal/cpuexec"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

// Grid is a rectangular wavefront array (two int64 variables plus DSize
// float64 values per cell).
type Grid = grid.Grid

// Kernel is a wavefront point computation; see NewSynthetic, NewNash
// and NewSeqCompare for the paper's applications, NewAppKernel for any
// catalog application by name, or implement the interface for your own
// — and register it with RegisterApp to serve it by name.
type Kernel = kernels.Kernel

// Instance describes a problem instance by the paper's input parameters
// (Table 1): Dim (or Rows/Cols for rectangular shapes), TSize, DSize.
type Instance = plan.Instance

// Params is a setting of the paper's tunable parameters (Table 2):
// CPUTile, Band, GPUTile, Halo (gpu-count is encoded in Band/Halo).
type Params = plan.Params

// System is a modeled platform (Table 4).
type System = hw.System

// Result is the outcome of a modeled run, including the phase breakdown.
type Result = engine.Result

// Options control Estimate and Simulate: the paper's 90-second
// censoring threshold, widening a dual-GPU configuration to more devices
// (the paper's future-work extension), and command-trace collection
// during Simulate (inspect it via Result.Trace.Render). The zero value
// is an uncensored, untraced run.
type Options = engine.Options

// Space is an exhaustive search space (Table 3).
type Space = core.Space

// SearchResult holds an exhaustive exploration.
type SearchResult = core.SearchResult

// Tuner is a trained autotuner for one system (the paper's tree
// ensemble, ModelKindTree).
type Tuner = core.Tuner

// Predictor is a deployed tuning model of any backend kind (the tree
// ensemble or the WaveTune-style bilinear backend); every serving layer
// (tuner sources, refine jobs, champion/challenger retraining) programs
// against it.
type Predictor = core.Predictor

// Model kinds accepted wherever a prediction backend is selected (the
// CLIs' -model flag, training sources, tuner files).
const (
	ModelKindTree     = core.KindTree
	ModelKindBilinear = core.KindBilinear
)

// TrainOptions configure tuner training.
type TrainOptions = core.TrainOptions

// NewGrid allocates a rows x cols grid with dsize floats per cell.
func NewGrid(rows, cols, dsize int) *Grid { return grid.New(rows, cols, dsize) }

// NewSynthetic returns the paper's synthetic training kernel with the
// given granularity (iterations) and data size (floats per cell).
func NewSynthetic(iters, dsize int) Kernel { return kernels.NewSynthetic(iters, dsize) }

// NewNash returns the Nash-equilibrium kernel (coarse-grained; one round
// maps to tsize 750 at dsize 4).
func NewNash(rounds int) Kernel { return kernels.NewNash(rounds) }

// NewSeqCompare returns the biological sequence comparison
// (Smith-Waterman) kernel (fine-grained; tsize 0.5, dsize 0).
func NewSeqCompare() Kernel { return kernels.NewSeqCompare() }

// NewSeqCompareWith aligns two explicit sequences.
func NewSeqCompareWith(a, b []byte) Kernel { return kernels.NewSeqCompareWith(a, b) }

// SystemByName looks up one of the Table 4 systems ("i3-540", "i7-2600K",
// "i7-3820").
func SystemByName(name string) (System, bool) { return hw.ByName(name) }

// InstanceOf derives the paper-scale instance parameters for running
// kernel k on a rows x cols grid.
func InstanceOf(rows, cols int, k Kernel) Instance {
	return Instance{Rows: rows, Cols: cols, TSize: k.TSize(), DSize: k.DSize()}.Normalize()
}

// RunSerial computes the grid with k on one host core and returns the
// wall-clock time.
func RunSerial(k Kernel, g *Grid) time.Duration {
	start := time.Now()
	cpuexec.RunSerial(k, g)
	return time.Since(start)
}

// RunParallel computes the grid with k on the host CPU using the tiled
// wavefront executor (cpuTile-sided tiles, workers goroutines; workers
// <= 0 selects GOMAXPROCS) and returns the wall-clock time.
func RunParallel(k Kernel, g *Grid, cpuTile, workers int) (time.Duration, error) {
	start := time.Now()
	err := cpuexec.New(workers).Run(k, g, cpuTile)
	return time.Since(start), err
}

// CPUOnly returns the all-CPU configuration with the given tile.
func CPUOnly(cpuTile int) Params { return engine.CPUOnlyParams(cpuTile) }

// GPUOnly returns the full single-GPU offload configuration for an
// instance of any shape.
func GPUOnly(inst Instance) Params { return engine.GPUOnlyParams(inst) }

// Estimate models a run of inst with parameters par on sys and returns
// virtual time and breakdown without computing data.
func Estimate(sys System, inst Instance, par Params, opts Options) (Result, error) {
	return engine.Estimate(sys, inst, par, opts)
}

// Simulate executes kernel k functionally over the shape of inst on the
// modeled system: the returned grid holds real results (bit-identical to
// RunSerial) and the result carries the virtual time of the three-phase
// hybrid execution. The granularity is always taken from k.
func Simulate(sys System, inst Instance, k Kernel, par Params, opts Options) (Result, *Grid, error) {
	return engine.Simulate(sys, inst, k, par, opts)
}

// SerialSeconds returns the modeled optimized sequential baseline in
// seconds.
func SerialSeconds(sys System, inst Instance) float64 {
	return engine.SerialNs(sys, inst) / 1e9
}

// DefaultSpace returns the paper's Table 3 search space.
func DefaultSpace() Space { return core.DefaultSpace() }

// QuickSpace returns a reduced space for experimentation.
func QuickSpace() Space { return core.QuickSpace() }

// Exhaustive explores the space on sys with the paper's 90-second
// threshold.
func Exhaustive(sys System, space Space) (*SearchResult, error) {
	return core.Exhaustive(sys, space, core.SearchOptions{})
}

// Train fits the paper's model pipeline (SVM gate, REP tree, M5 model
// trees) on an exhaustive search result.
func Train(sr *SearchResult, opts TrainOptions) (*Tuner, error) {
	return core.Train(sr, opts)
}

// DefaultTrainOptions returns the standard training configuration.
func DefaultTrainOptions() TrainOptions { return core.DefaultTrainOptions() }
