package wavefront

import "testing"

// TestRectangularEndToEnd is the acceptance path for rectangular grids: a
// rows != cols instance runs through RunSerial, the parallel Executor
// (RunParallel), Estimate, Simulate and Exhaustive, with the serial
// and tiled-parallel native results bit-identical.
func TestRectangularEndToEnd(t *testing.T) {
	query := []byte("ACGTGGTCAAGGTACGTTACG")
	ref := []byte("TTGACGTGGACAAGGTACGTTCCGATCGATAACGGATCAGG")
	k := NewSeqCompareWith(query, ref)
	rows, cols := len(query), len(ref)

	// Native: serial vs tiled-parallel, bit-identical.
	want := NewGrid(rows, cols, 0)
	RunSerial(k, want)
	for _, ct := range []int{1, 3, 8, 21} {
		g := NewGrid(rows, cols, 0)
		if _, err := RunParallel(k, g, ct, 3); err != nil {
			t.Fatalf("ct=%d: %v", ct, err)
		}
		if !g.Equal(want) {
			t.Fatalf("ct=%d: parallel rect result differs from serial", ct)
		}
	}

	// Modeled: estimator and functional simulator.
	sys, _ := SystemByName("i7-2600K")
	inst := InstanceOf(600, 1400, NewSeqCompare())
	if rI, cI := inst.Shape(); rI != 600 || cI != 1400 {
		t.Fatalf("InstanceOf shape wrong: %v", inst)
	}
	for _, par := range []Params{CPUOnly(8), GPUOnly(inst)} {
		res, err := Estimate(sys, inst, par, Options{})
		if err != nil {
			t.Fatalf("%v: %v", par, err)
		}
		if res.RTimeNs <= 0 {
			t.Fatalf("%v: non-positive modeled time", par)
		}
	}
	res, sg, err := Simulate(sys, InstanceOf(rows, cols, k), k, Params{CPUTile: 4, Band: 10, GPUTile: 1, Halo: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sg.Equal(want) {
		t.Error("simulated rect grid differs from native serial")
	}
	if res.RTimeNs <= 0 {
		t.Error("implausible simulated time")
	}

	// Search: an exhaustive sweep over a space containing the rect shape.
	space := Space{
		Rects:     [][2]int{{600, 1400}},
		TSizes:    []float64{0.5},
		DSizes:    []int{0},
		CPUTiles:  []int{1, 8},
		BandFracs: []float64{-1, 0.5, 1.0},
		HaloFracs: []float64{-1, 0.15},
		GPUTiles:  []int{1, 8},
	}
	sr, err := Exhaustive(sys, space)
	if err != nil {
		t.Fatal(err)
	}
	ir, ok := sr.For(inst)
	if !ok {
		t.Fatal("rect instance missing from public search result")
	}
	if _, ok := ir.Best(); !ok {
		t.Fatal("no best configuration found for rect instance")
	}
}
