package wavefront_test

import (
	"context"
	"fmt"

	"repro/wavefront"
)

// Example computes a small Smith-Waterman alignment with the wavefront
// pattern library: define a kernel, allocate the grid, run it on the
// host CPU, and read the score out of the final cell.
func Example() {
	query := []byte("GATTACA")
	ref := []byte("GCATGCGATTACA")
	k := wavefront.NewSeqCompareWith(query, ref)
	g := wavefront.NewGrid(len(query), len(ref), 0)
	wavefront.RunSerial(k, g)
	fmt.Printf("aligned %dx%d cells, score %d\n",
		g.Rows(), g.Cols(), g.B(g.Rows()-1, g.Cols()-1))
	// Output:
	// aligned 7x13 cells, score 14
}

// ExampleNewGrid shows the rectangular grid shape: a rows x cols array
// has rows+cols-1 anti-diagonals whose parallelism profile is
// trapezoidal rather than the square's triangular one.
func ExampleNewGrid() {
	g := wavefront.NewGrid(600, 1400, 1)
	k := wavefront.NewSynthetic(10, 1)
	inst := wavefront.InstanceOf(g.Rows(), g.Cols(), k)
	fmt.Printf("shape %dx%d, square=%v\n", g.Rows(), g.Cols(), g.Square())
	fmt.Printf("anti-diagonals: %d (widest %d cells)\n", g.NumDiags(), inst.MinSide())
	// Output:
	// shape 600x1400, square=false
	// anti-diagonals: 1999 (widest 600 cells)
}

// ExampleTuner_Predict is the paper's deployment path: train an
// autotuner for a modeled system on the synthetic application, then
// predict tuned parameters for an unseen application instance (here the
// Nash kernel at dim 1900).
func ExampleTuner_Predict() {
	sys, _ := wavefront.SystemByName("i7-2600K")
	sr, err := wavefront.Exhaustive(sys, wavefront.QuickSpace())
	if err != nil {
		panic(err)
	}
	tuner, err := wavefront.Train(sr, wavefront.DefaultTrainOptions())
	if err != nil {
		panic(err)
	}

	k := wavefront.NewNash(2)
	inst := wavefront.InstanceOf(1900, 1900, k)
	pred := tuner.Predict(inst)
	fmt.Printf("serial: %v\n", pred.Serial)
	fmt.Printf("offloads to GPU: %v\n", pred.Par.GPUCount() > 0)
	fmt.Printf("valid cpu-tile: %v\n", pred.Par.CPUTile >= 1 && pred.Par.CPUTile <= 1900)
	// Output:
	// serial: false
	// offloads to GPU: true
	// valid cpu-tile: true
}

// ExampleNewPlanCache shows the serving layer's cache: misses run the
// predict function once per distinct (system, instance) key, repeats
// are hits, and the counters expose the ratio.
func ExampleNewPlanCache() {
	cache := wavefront.NewPlanCache(128, 0, func(_ context.Context, system string, inst wavefront.Instance) (wavefront.CachedPlan, error) {
		// A stand-in for Tuner.PredictTimed; the real daemon plugs the
		// trained tuner in here.
		return wavefront.CachedPlan{Par: wavefront.CPUOnly(8), RTimeNs: 1e9, SerialNs: 4e9}, nil
	})

	inst := wavefront.Instance{Dim: 1900, TSize: 750, DSize: 4}
	for i := 0; i < 3; i++ {
		plan, outcome, _ := cache.Get("i7-2600K", inst)
		fmt.Printf("%s: speedup %.1fx\n", outcome, plan.SerialNs/plan.RTimeNs)
	}
	st := cache.Stats()
	fmt.Printf("hits=%d misses=%d size=%d\n", st.Hits, st.Misses, st.Size)
	// Output:
	// miss: speedup 4.0x
	// hit: speedup 4.0x
	// hit: speedup 4.0x
	// hits=2 misses=1 size=1
}
