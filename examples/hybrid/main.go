// Command hybrid demonstrates a full three-phase run on a modeled
// dual-GPU system, showing the phase structure, halo swaps and cost
// breakdown of Section 2's implementation strategy — and that the
// functional simulation computes exactly the serial result.
package main

import (
	"fmt"
	"log"

	"repro/wavefront"
)

func main() {
	sys, _ := wavefront.SystemByName("i7-2600K")
	k := wavefront.NewSynthetic(3000, 1)
	dim := 350

	// Offload a band of 240 diagonals around the main diagonal to both
	// GPUs, swapping 12-element halos.
	par := wavefront.Params{CPUTile: 8, Band: 240, GPUTile: 1, Halo: 12}
	inst := wavefront.InstanceOf(dim, dim, k)
	res, g, err := wavefront.Simulate(sys, inst, k, par, wavefront.Options{CollectTrace: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hybrid run of %s (dim=%d) on %s with %v\n\n", k.Name(), dim, sys.Name, par)
	fmt.Printf("phase 1 (CPU lead-in):  %8.2fms\n", res.Phase1Ns/1e6)
	fmt.Printf("phase 2 (2 GPUs):       %8.2fms\n", res.GPUNs/1e6)
	fmt.Printf("phase 3 (CPU tail):     %8.2fms\n", res.Phase3Ns/1e6)
	fmt.Printf("total virtual time:     %8.2fms\n\n", res.RTimeNs/1e6)

	fmt.Printf("GPU kernels:     %d\n", res.Kernels)
	fmt.Printf("halo swaps:      %d (%.2fms)\n", res.Swaps, res.SwapNs/1e6)
	fmt.Printf("transfers:       %.2fms\n", res.XferNs/1e6)
	fmt.Printf("device startup:  %.2fms\n", res.StartupNs/1e6)
	fmt.Printf("redundant cells: %d (the halo trade-off)\n\n", res.RedundantPoints)

	// Verify against the native serial sweep.
	ref := wavefront.NewGrid(dim, dim, k.DSize())
	wavefront.RunSerial(k, ref)
	fmt.Println("functional result identical to serial:", g.Equal(ref))

	// Compare against the simple schemes.
	serial := wavefront.SerialSeconds(sys, inst)
	cpu, err := wavefront.Estimate(sys, inst, wavefront.CPUOnly(8), wavefront.Options{})
	if err != nil {
		log.Fatal(err)
	}
	one, err := wavefront.Estimate(sys, inst, wavefront.Params{CPUTile: 8, Band: 240, GPUTile: 1, Halo: -1}, wavefront.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserial %0.2fs | parallel CPU %0.2fs | 1 GPU %0.2fs | 2 GPUs %0.2fs\n",
		serial, cpu.RTimeSec(), one.RTimeSec(), res.RTimeSec())

	fmt.Println("\nexecution timeline:")
	fmt.Print(res.Trace.Render(64))
}
