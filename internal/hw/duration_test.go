package hw

import (
	"math"
	"testing"
)

// TestLaunchDurationDependsOnlyOnPasses pins the invariant the
// estimator's launch-cost memo rests on: a launch's duration depends on
// its point count only through PaddedPoints, so every point count of
// one SIMT pass count costs exactly — bit for bit — the same.
func TestLaunchDurationDependsOnlyOnPasses(t *testing.T) {
	for _, sys := range Systems() {
		for _, g := range sys.GPUs {
			w := g.Width()
			for _, tsize := range []float64{1, 37.5, 2000, 12000} {
				for _, dsize := range []int{0, 1, 3, 5} {
					for _, sync := range []int{0, 1, 15, 127} {
						for _, inflate := range []float64{0, 1, 1.5, 127.0 / 64} {
							for points := 1; points <= 4*w; points++ {
								got := g.LaunchDurationNs(sys.CPU, points, tsize, dsize, sync, inflate)
								want := g.LaunchDurationNs(sys.CPU, g.PaddedPoints(points), tsize, dsize, sync, inflate)
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s %s points=%d tsize=%v dsize=%d sync=%d inflate=%v: %v != %v at the padded count %d",
										sys.Name, g.Name, points, tsize, dsize, sync, inflate, got, want, g.PaddedPoints(points))
								}
							}
						}
					}
				}
			}
		}
	}
}
