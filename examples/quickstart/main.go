// Command quickstart defines a wavefront computation and runs it on the
// host CPU, serially and tile-parallel, through the public API.
package main

import (
	"fmt"
	"log"

	"repro/wavefront"
)

func main() {
	// The synthetic kernel with granularity 200 and one float per cell —
	// the application the paper trains its tuner on.
	k := wavefront.NewSynthetic(200, 1)
	dim := 600

	serialGrid := wavefront.NewGrid(dim, dim, k.DSize())
	serialTime := wavefront.RunSerial(k, serialGrid)
	fmt.Printf("serial sweep:          %8.1fms\n", serialTime.Seconds()*1e3)

	// The tiled parallel executor: 8x8 CPU tiles, all host cores.
	parGrid := wavefront.NewGrid(dim, dim, k.DSize())
	parTime, err := wavefront.RunParallel(k, parGrid, 8, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tiled parallel sweep:  %8.1fms  (%.2fx)\n",
		parTime.Seconds()*1e3, serialTime.Seconds()/parTime.Seconds())

	if !serialGrid.Equal(parGrid) {
		log.Fatal("parallel result differs from serial!")
	}
	fmt.Println("results identical: true")

	// The same computation on a modeled heterogeneous system: a hybrid
	// three-phase run with one simulated GPU.
	sys, _ := wavefront.SystemByName("i3-540")
	res, hybridGrid, err := wavefront.Simulate(sys, wavefront.InstanceOf(dim, dim, k), k,
		wavefront.Params{CPUTile: 8, Band: 400, GPUTile: 1, Halo: -1}, wavefront.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhybrid on modeled %s: virtual %.3fs (%d GPU kernels)\n",
		sys.Name, res.RTimeSec(), res.Kernels)
	fmt.Println("hybrid results identical:", hybridGrid.Equal(serialGrid))
}
