package cpuexec

import (
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/kernels"
)

func TestParallelMatchesSerial(t *testing.T) {
	// The tiled parallel executor must produce bit-identical results to
	// the serial sweep for every kernel and tile size.
	for _, k := range []kernels.Kernel{
		kernels.NewSynthetic(3, 2),
		kernels.NewNash(1),
		kernels.NewSeqCompare(),
		kernels.NewKnapsack(33),
	} {
		want := grid.New(33, 33, k.DSize())
		RunSerial(k, want)
		for _, ct := range []int{1, 2, 4, 8, 10, 33} {
			got := grid.New(33, 33, k.DSize())
			ex := New(4)
			if err := ex.Run(k, got, ct); err != nil {
				t.Fatalf("%s ct=%d: %v", k.Name(), ct, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s ct=%d: parallel result differs from serial", k.Name(), ct)
			}
		}
	}
}

func TestParallelMatchesSerialProperty(t *testing.T) {
	// Property over random shapes: any dim, tile and worker count agree
	// with the serial reference.
	f := func(rawDim, rawCt, rawW uint8) bool {
		dim := int(rawDim)%40 + 1
		ct := int(rawCt)%dim + 1
		w := int(rawW)%6 + 1
		k := kernels.NewSynthetic(2, 1)
		want := grid.New(dim, dim, 1)
		RunSerial(k, want)
		got := grid.New(dim, dim, 1)
		if err := New(w).Run(k, got, ct); err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestThreePhaseComposition(t *testing.T) {
	// Running the three phases of the hybrid strategy back to back on the
	// CPU must equal one full sweep: phase boundaries cut along diagonals.
	k := kernels.NewSynthetic(2, 1)
	dim := 25
	want := grid.New(dim, dim, 1)
	RunSerial(k, want)

	got := grid.New(dim, dim, 1)
	ex := New(3)
	d := grid.NumDiags(dim, dim)
	if err := ex.RunDiagRange(k, got, 4, 0, 9); err != nil {
		t.Fatal(err)
	}
	RunSerialDiagRange(k, got, 10, 30) // the "GPU" band, serial here
	if err := ex.RunDiagRange(k, got, 4, 31, d-1); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("three-phase composition differs from full sweep")
	}
}

func TestRunDiagRangeOnlyTouchesRange(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	dim := 12
	g := grid.New(dim, dim, 0)
	if err := New(2).RunDiagRange(k, g, 3, 5, 8); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			d := r + c
			if (d < 5 || d > 8) && g.A(r, c) != 0 {
				t.Fatalf("cell (%d,%d) outside range was written", r, c)
			}
			if d >= 5 && d <= 8 && g.A(r, c) == 0 {
				t.Fatalf("cell (%d,%d) inside range was skipped", r, c)
			}
		}
	}
}

func TestRunDiagRangeClampsBounds(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	g := grid.New(8, 8, 0)
	// Out-of-range lo/hi must clamp rather than fail.
	if err := New(2).RunDiagRange(k, g, 2, -5, 1000); err != nil {
		t.Fatal(err)
	}
	want := grid.New(8, 8, 0)
	RunSerial(k, want)
	if !g.Equal(want) {
		t.Error("clamped full range differs from serial")
	}
}

func TestRunDiagRangeEmpty(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	g := grid.New(8, 8, 0)
	if err := New(2).RunDiagRange(k, g, 2, 6, 5); err != nil {
		t.Fatal(err)
	}
	for _, v := range g.IntA {
		if v != 0 {
			t.Fatal("empty range must compute nothing")
		}
	}
}

func TestRunRejectsBadTile(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	g := grid.New(8, 8, 0)
	if err := New(1).Run(k, g, 0); err == nil {
		t.Error("ct=0 must be rejected")
	}
	if err := New(1).Run(k, g, 9); err == nil {
		t.Error("ct>dim must be rejected")
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Error("default worker count must be positive")
	}
	if New(7).Workers() != 7 {
		t.Error("explicit worker count not honored")
	}
}

func TestSerialDiagRangeMatchesRowMajorPrefix(t *testing.T) {
	// Computing diagonals [0, hi] serially must agree with a row-major
	// sweep restricted to those diagonals.
	k := kernels.NewSeqCompare()
	dim := 16
	a := grid.New(dim, dim, 0)
	RunSerialDiagRange(k, a, 0, 12)
	b := grid.New(dim, dim, 0)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if r+c <= 12 {
				k.Compute(b, r, c)
			}
		}
	}
	if !a.Equal(b) {
		t.Error("diagonal-prefix execution differs from row-major prefix")
	}
}

func TestExecutorReuseAndClose(t *testing.T) {
	// One executor across many runs must stay correct (persistent pool).
	k := kernels.NewSynthetic(2, 1)
	want := grid.New(30, 30, 1)
	RunSerial(k, want)
	ex := New(3)
	defer ex.Close()
	for i := 0; i < 10; i++ {
		g := grid.New(30, 30, 1)
		if err := ex.Run(k, g, 5); err != nil {
			t.Fatal(err)
		}
		if !g.Equal(want) {
			t.Fatalf("run %d differs from serial", i)
		}
	}
}

func TestSingleWorkerExecutor(t *testing.T) {
	k := kernels.NewSeqCompare()
	want := grid.New(25, 25, 0)
	RunSerial(k, want)
	ex := New(1)
	defer ex.Close()
	g := grid.New(25, 25, 0)
	if err := ex.Run(k, g, 4); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Error("single-worker run differs from serial")
	}
}
