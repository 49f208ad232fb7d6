package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
)

// checkOracle requires the streaming Estimate to equal the materialized
// oracle exactly: the whole Result (breakdown, counts, censoring, plan)
// and the error, if any.
func checkOracle(t *testing.T, sys hw.System, inst plan.Instance, par plan.Params, opts engine.Options) {
	t.Helper()
	got, gotErr := engine.Estimate(sys, inst, par, opts)
	want, wantErr := engine.EstimateMaterialized(sys, inst, par, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %v %v %+v: error %v, oracle %v", sys.Name, inst, par, opts, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v %v %+v:\nstreaming %+v\noracle    %+v",
			sys.Name, inst, par, opts, got.Breakdown, want.Breakdown)
	}
}

// TestEstimateMatchesMaterializedOracle is the differential check of the
// streaming cost model against the materialized one it replaced, on the
// quick search space, on systems widened beyond two GPUs, and on seeded
// random instances (rectangular, masked, every gpu-tile, every halo,
// censored anywhere in the run).
func TestEstimateMatchesMaterializedOracle(t *testing.T) {
	space := core.QuickSpace()
	for _, sys := range hw.Systems() {
		sys := sys
		t.Run("quick/"+sys.Name, func(t *testing.T) {
			t.Parallel()
			opts := engine.Options{ThresholdNs: engine.DefaultThresholdNs}
			for _, inst := range space.Instances() {
				for _, par := range space.Configs(inst, sys) {
					checkOracle(t, sys, inst, par, opts)
				}
			}
		})
	}
	for _, sys := range hw.Systems() {
		wide := hw.WithGPUCount(sys, 4)
		t.Run("widened/"+sys.Name, func(t *testing.T) {
			t.Parallel()
			inst := plan.Instance{Dim: 700, TSize: 1000, DSize: 1}
			for _, par := range space.Configs(inst, wide) {
				for _, n := range []int{3, 4} {
					checkOracle(t, wide, inst, par, engine.Options{GPUs: n})
				}
			}
		})
	}
	for _, sys := range hw.Systems() {
		t.Run("bucket-edges/"+sys.Name, func(t *testing.T) {
			t.Parallel()
			for _, c := range bucketEdgeCases(sys) {
				checkOracle(t, sys, c.inst, c.par, engine.Options{})
			}
		})
	}
	for i, sys := range hw.Systems() {
		sys, seed := sys, int64(i+1)
		t.Run("random/"+sys.Name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			wide := hw.WithGPUCount(sys, 4)
			for n := 0; n < 2000; n++ {
				s, opts := sys, engine.Options{}
				if n%4 == 0 {
					s = wide
					opts.GPUs = rng.Intn(5)
				}
				inst, par := randomCase(rng)
				if s.MaxGPUs() < 2 {
					par.Halo = -1
				}
				if rng.Intn(5) < 2 {
					// Censor somewhere in the run: inside phase 1, a GPU
					// period or phase 3, or not at all.
					full, err := engine.EstimateMaterialized(s, inst, par, opts)
					if err == nil {
						opts.ThresholdNs = full.RTimeNs * (0.02 + 1.03*rng.Float64())
					}
				}
				checkOracle(t, s, inst, par, opts)
			}
		})
	}
}

type oracleCase struct {
	inst plan.Instance
	par  plan.Params
}

// bucketEdgeCases are the plans whose launches straddle a SIMT pass
// boundary, where the launch-cost memo must reprice: sides of one less
// than, exactly and one more than the device width (448, 480 or 512
// work-items) and than twice it (so each half of a dual-GPU partition
// meets the edge too), gpu-tile 1, a full and a half band, single-GPU
// and — where the system has two GPUs — dual-GPU with halos 0 to 4,
// each dense and masked.
func bucketEdgeCases(sys hw.System) []oracleCase {
	w := sys.GPUs[0].Width()
	halos := []int{-1}
	if sys.MaxGPUs() >= 2 {
		halos = append(halos, 0, 1, 2, 3, 4)
	}
	var out []oracleCase
	for _, side := range []int{w - 1, w, w + 1, 2*w - 1, 2 * w, 2*w + 1} {
		for _, live := range []int{0, side * side * 3 / 5} {
			inst := plan.Instance{Dim: side, TSize: 2000, DSize: 1, LiveCells: live}
			for _, band := range []int{inst.MaxUsefulBand(), side / 2} {
				for _, halo := range halos {
					par := plan.Params{CPUTile: 8, Band: band, GPUTile: 1, Halo: halo}
					out = append(out, oracleCase{inst, par})
				}
			}
		}
	}
	return out
}

// randomCase draws an instance and a configuration: square or
// rectangular, dense or masked, any cpu-tile, band, gpu-tile and halo
// (occasionally just past its maximum, so both sides must fail alike).
func randomCase(rng *rand.Rand) (plan.Instance, plan.Params) {
	side := func() int {
		if rng.Intn(10) == 0 {
			return 1 + rng.Intn(8)
		}
		return 1 + rng.Intn(700)
	}
	inst := plan.Instance{
		TSize: math.Exp(rng.Float64() * math.Log(12000)),
		DSize: rng.Intn(6),
	}
	if rng.Intn(2) == 0 {
		inst.Dim = side()
	} else {
		inst.Rows, inst.Cols = side(), side()
	}
	if rng.Intn(3) == 0 {
		inst.LiveCells = 1 + rng.Intn(inst.Cells())
	}
	par := plan.Params{CPUTile: 1 + rng.Intn(inst.MaxSide()), GPUTile: 1 + rng.Intn(64), Halo: -1}
	if rng.Intn(2) == 0 {
		par.CPUTile = 1 + rng.Intn(min(16, inst.MaxSide()))
	}
	switch maxBand := inst.MaxUsefulBand(); rng.Intn(5) {
	case 0:
		par.Band = -1
	case 1:
		par.Band = maxBand
	default:
		par.Band = rng.Intn(maxBand + 1)
	}
	if par.Band >= 0 && rng.Intn(3) > 0 {
		par.Halo = rng.Intn(plan.MaxHaloFor(inst, par.Band) + 2)
	}
	return inst, par
}
