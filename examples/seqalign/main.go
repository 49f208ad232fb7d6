// Command seqalign runs the paper's fine-grained biological sequence comparison
// application (Smith–Waterman local alignment). Real alignments compare
// sequences of unequal length, so the score matrix is rectangular: a
// query of m bases against a reference of n bases is an m x n wavefront
// whose anti-diagonal parallelism profile is trapezoidal rather than
// triangular. Very large instances with a tiny kernel make this a pure
// CPU workload — the tuner's job is to keep it off the GPU and pick the
// right cpu-tile (Section 4.2: "band prediction 100% accurate, i.e. do
// everything on the CPU").
package main

import (
	"fmt"
	"log"

	"repro/wavefront"
)

func main() {
	// Align a short query against a longer reference, natively on the
	// host: the grid is rows x cols with rows = len(query) and
	// cols = len(reference).
	query := []byte("ACGTGGTCAAGGTACGTTACGATCGATTACGGATCAGGTACCAGT")
	ref := []byte("TTGACGTGGACAAGGTACGTTCCGATCGATAACGGATCAGGTACCAGTAGGATCCTTAGGCA")
	k := wavefront.NewSeqCompareWith(query, ref)
	rows, cols := len(query), len(ref)
	g := wavefront.NewGrid(rows, cols, 0)
	if _, err := wavefront.RunParallel(k, g, 8, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aligned %d x %d (query vs reference): local alignment score %d\n\n",
		rows, cols, g.B(rows-1, cols-1))

	// The serial sweep and the tiled executor agree bit for bit on the
	// rectangular grid, so any tile size is safe to tune over.
	ser := wavefront.NewGrid(rows, cols, 0)
	wavefront.RunSerial(k, ser)
	fmt.Printf("serial reference agrees with tiled executor: %v\n\n", ser.Equal(g))

	// Tile-size sweep on a large rectangular alignment: for fine-grained
	// kernels the memory system dominates, so cpu-tile matters. A 1500 x
	// 4860 instance has the same cell count as the paper's square 2700.
	sys, _ := wavefront.SystemByName("i7-3820")
	inst := wavefront.InstanceOf(1500, 4860, wavefront.NewSeqCompare())
	fmt.Printf("modeled %s, %v (%d diagonals):\n", sys.Name, inst, inst.NumDiags())
	serial := wavefront.SerialSeconds(sys, inst)
	fmt.Printf("  serial: %8.4fs\n", serial)
	for _, ct := range []int{1, 2, 4, 8, 10} {
		res, err := wavefront.Estimate(sys, inst, wavefront.CPUOnly(ct), wavefront.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cpu-tile=%-2d : %8.4fs (%.2fx)\n", ct, res.RTimeSec(), serial/res.RTimeSec())
	}

	// And the GPU is a losing proposition at tsize=0.5.
	gpu, err := wavefront.Estimate(sys, inst, wavefront.GPUOnly(inst), wavefront.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  GPU only    : %8.4fs (%.2fx) <- why the tuner says band=-1\n\n",
		gpu.RTimeSec(), serial/gpu.RTimeSec())

	// The same alignment through the functional simulator: the modeled
	// three-phase run computes the identical rectangular score matrix.
	small := wavefront.InstanceOf(40, 70, k)
	res, sg, err := wavefront.Simulate(sys, small, k, wavefront.CPUOnly(4), wavefront.Options{})
	if err != nil {
		log.Fatal(err)
	}
	want := wavefront.NewGrid(40, 70, 0)
	wavefront.RunSerial(k, want)
	fmt.Printf("simulated %v in %.4fs virtual: matches native serial = %v\n",
		small, res.RTimeSec(), sg.Equal(want))
}
