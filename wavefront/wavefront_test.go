package wavefront

import (
	"testing"
)

func TestNativeSerialVsParallel(t *testing.T) {
	k := NewSynthetic(3, 1)
	a := NewGrid(40, 40, 1)
	RunSerial(k, a)
	b := NewGrid(40, 40, 1)
	if _, err := RunParallel(k, b, 4, 2); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("parallel result differs from serial through the public API")
	}
}

func TestSimulateThroughPublicAPI(t *testing.T) {
	sys, ok := SystemByName("i7-2600K")
	if !ok {
		t.Fatal("missing system")
	}
	k := NewSeqCompare()
	dim := 50
	res, g, err := Simulate(sys, InstanceOf(dim, dim, k), k, Params{CPUTile: 4, Band: 20, GPUTile: 1, Halo: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := NewGrid(dim, dim, 0)
	RunSerial(k, want)
	if !g.Equal(want) {
		t.Error("simulated grid differs from native serial")
	}
	if res.RTimeNs <= 0 || res.Kernels == 0 {
		t.Error("implausible result")
	}
}

func TestEstimateAndBaselines(t *testing.T) {
	sys, _ := SystemByName("i3-540")
	inst := Instance{Dim: 500, TSize: 1000, DSize: 1}
	cpu, err := Estimate(sys, inst, CPUOnly(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Estimate(sys, inst, GPUOnly(inst), Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial := SerialSeconds(sys, inst)
	if serial <= 0 || cpu.RTimeSec() <= 0 || gpu.RTimeSec() <= 0 {
		t.Error("non-positive times")
	}
	if cpu.RTimeSec() >= serial {
		t.Error("parallel CPU must beat serial on a coarse instance")
	}
}

func TestInstanceOf(t *testing.T) {
	k := NewNash(2)
	inst := InstanceOf(700, 700, k)
	if inst.Dim != 700 || inst.TSize != 1500 || inst.DSize != 4 {
		t.Errorf("InstanceOf wrong: %v", inst)
	}
}

func TestSearchAndTrainPublicPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner pipeline covered by internal tests; skip in -short")
	}
	sys, _ := SystemByName("i3-540")
	space := Space{
		Dims:      []int{500, 1500},
		TSizes:    []float64{10, 1000, 8000},
		DSizes:    []int{1},
		CPUTiles:  []int{1, 8},
		BandFracs: []float64{-1, 0.5, 1.0},
		HaloFracs: []float64{-1},
		GPUTiles:  []int{1},
	}
	sr, err := Exhaustive(sys, space)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := tuner.Predict(Instance{Dim: 1000, TSize: 5000, DSize: 1})
	if !pred.Serial && pred.Par.CPUTile < 1 {
		t.Errorf("invalid prediction %v", pred)
	}
}

func TestKnapsackKernelThroughAPI(t *testing.T) {
	k, err := NewAppKernel("knapsack", 30, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(30, 30, 0)
	RunSerial(k, g)
	if g.A(29, 29) <= 0 {
		t.Error("knapsack value must be positive at full capacity")
	}
}
