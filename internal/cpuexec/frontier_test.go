package cpuexec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// frontierKernels are the catalog kernels with interesting live regions:
// the masked pair plus a dense one, so the frontier paths are checked
// against both shapes of substrate.
func frontierKernels() []kernels.Kernel {
	return []kernels.Kernel{
		kernels.NewSynthetic(3, 2),
		kernels.NewNussinov(-1),
		kernels.NewMorphRecon(-1, 11),
		kernels.NewMorphRecon(200, 5), // sparse: ~22% live
	}
}

// TestRunSerialFrontierMatchesSerial: draining any frontier serially
// equals the row-major reference, for dense and irregular frontiers.
func TestRunSerialFrontierMatchesSerial(t *testing.T) {
	for _, k := range frontierKernels() {
		want := grid.New(19, 23, k.DSize())
		RunSerial(k, want)
		rows, cols := want.Rows(), want.Cols()

		dense := grid.New(rows, cols, k.DSize())
		if err := RunSerialFrontier(k, dense, grid.NewDiagRangeFrontier(rows, cols, 0, grid.NumDiags(rows, cols)-1)); err != nil {
			t.Fatalf("%s dense frontier: %v", k.Name(), err)
		}
		if !dense.Equal(want) {
			t.Errorf("%s: dense frontier result differs from serial", k.Name())
		}

		irr := grid.New(rows, cols, k.DSize())
		f := grid.NewIrregularFrontier(rows, cols, kernels.StencilOf(k), kernels.LiveOf(k, rows, cols))
		if err := RunSerialFrontier(k, irr, f); err != nil {
			t.Fatalf("%s irregular frontier: %v", k.Name(), err)
		}
		if !irr.Equal(want) {
			t.Errorf("%s: irregular frontier result differs from serial", k.Name())
		}
	}
}

// TestRunFrontierMatchesSerial: the pooled frontier executor agrees with
// the serial reference across worker counts.
func TestRunFrontierMatchesSerial(t *testing.T) {
	for _, k := range frontierKernels() {
		want := grid.New(26, 31, k.DSize())
		RunSerial(k, want)
		rows, cols := want.Rows(), want.Cols()
		for _, w := range []int{1, 3, 6} {
			ex := New(w)
			got := grid.New(rows, cols, k.DSize())
			f := grid.NewIrregularFrontier(rows, cols, kernels.StencilOf(k), kernels.LiveOf(k, rows, cols))
			if err := ex.RunFrontier(context.Background(), k, got, f); err != nil {
				t.Fatalf("%s w=%d: %v", k.Name(), w, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s w=%d: frontier result differs from serial", k.Name(), w)
			}
			ex.Close()
		}
	}
}

// TestRunIrregularMatchesSerial: the irregular entry point — cell-level
// and tiled — agrees with the serial reference for every kernel.
func TestRunIrregularMatchesSerial(t *testing.T) {
	for _, k := range frontierKernels() {
		want := grid.New(29, 24, k.DSize())
		RunSerial(k, want)
		rows, cols := want.Rows(), want.Cols()
		ex := New(4)
		defer ex.Close()
		for _, ct := range []int{1, 2, 5, 8, 29} {
			got := grid.New(rows, cols, k.DSize())
			if err := ex.RunIrregular(context.Background(), k, got, ct); err != nil {
				t.Fatalf("%s ct=%d: %v", k.Name(), ct, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s ct=%d: irregular result differs from serial", k.Name(), ct)
			}
		}
	}
}

// TestRunFrontierEmptyAndSingle: a fully masked region computes nothing
// and reports success; a single-cell grid computes its one cell.
func TestRunFrontierEmptyAndSingle(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	ex := New(2)
	defer ex.Close()

	g := grid.New(6, 6, k.DSize())
	empty := grid.NewIrregularFrontier(6, 6, grid.DenseStencil(), func(r, c int) bool { return false })
	if err := ex.RunFrontier(context.Background(), k, g, empty); err != nil {
		t.Fatalf("empty frontier: %v", err)
	}
	if !g.Equal(grid.New(6, 6, k.DSize())) {
		t.Error("empty frontier modified the grid")
	}

	one := grid.New(1, 1, k.DSize())
	if err := ex.RunFrontier(context.Background(), k, one, grid.NewIrregularFrontier(1, 1, nil, nil)); err != nil {
		t.Fatalf("1x1 frontier: %v", err)
	}
	ref := grid.New(1, 1, k.DSize())
	k.Compute(ref, 0, 0)
	if !one.Equal(ref) {
		t.Error("1x1 frontier did not compute its cell")
	}
}

// TestRunFrontierDeadEnd: a stencil that can never seed (every cell
// waits on a neighbour) must surface ErrFrontierStuck, not hang or
// silently succeed — serial and pooled alike.
func TestRunFrontierDeadEnd(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	stuck := func() grid.Frontier {
		return grid.NewIrregularFrontier(4, 4, grid.Stencil{{DR: 0, DC: -1}, {DR: 0, DC: 1}}, nil)
	}
	g := grid.New(4, 4, k.DSize())
	if err := RunSerialFrontier(k, g, stuck()); !errors.Is(err, ErrFrontierStuck) {
		t.Errorf("serial: err = %v, want ErrFrontierStuck", err)
	}
	ex := New(3)
	defer ex.Close()
	if err := ex.RunFrontier(context.Background(), k, g, stuck()); !errors.Is(err, ErrFrontierStuck) {
		t.Errorf("pooled: err = %v, want ErrFrontierStuck", err)
	}
}

// cancellingFrontier wraps a frontier and cancels a context after a
// fixed number of delivered steps, exercising mid-run cancellation.
type cancellingFrontier struct {
	inner  grid.Frontier
	cancel context.CancelFunc
	after  int
	seen   int
}

func (f *cancellingFrontier) Next() ([]grid.Cell, bool) {
	if f.seen == f.after {
		f.cancel()
	}
	f.seen++
	return f.inner.Next()
}
func (f *cancellingFrontier) Cells() int { return f.inner.Cells() }
func (f *cancellingFrontier) Steps() int { return f.inner.Steps() }

// TestRunFrontierCancel: cancellation before and during a run stops the
// executor at the next step barrier with the context's error.
func TestRunFrontierCancel(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	ex := New(3)
	defer ex.Close()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	g := grid.New(8, 8, k.DSize())
	err := ex.RunFrontier(pre, k, g, grid.NewDiagRangeFrontier(8, 8, 0, grid.NumDiags(8, 8)-1))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &cancellingFrontier{inner: grid.NewDiagRangeFrontier(20, 20, 0, grid.NumDiags(20, 20)-1), cancel: cancel, after: 5}
	err = ex.RunFrontier(ctx, k, grid.New(20, 20, k.DSize()), f)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-frontier: err = %v, want context.Canceled", err)
	}
	if f.seen >= f.inner.Steps() {
		t.Errorf("executor drained %d steps after cancellation", f.seen)
	}

	// RunIrregular honours cancellation too.
	ictx, icancel := context.WithCancel(context.Background())
	icancel()
	if err := ex.RunIrregular(ictx, k, grid.New(8, 8, k.DSize()), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("RunIrregular pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// TestRunFrontierClosed: frontier entry points refuse a closed executor.
func TestRunFrontierClosed(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	ex := New(2)
	ex.Close()
	g := grid.New(4, 4, k.DSize())
	if err := ex.RunFrontier(context.Background(), k, g, grid.NewDiagRangeFrontier(4, 4, 0, grid.NumDiags(4, 4)-1)); !errors.Is(err, ErrClosed) {
		t.Errorf("RunFrontier on closed executor: %v, want ErrClosed", err)
	}
	if err := ex.RunIrregular(context.Background(), k, g, 2); !errors.Is(err, ErrClosed) {
		t.Errorf("RunIrregular on closed executor: %v, want ErrClosed", err)
	}
}

// TestFrontierSchedulerStress drives several executors through irregular
// and dense frontiers concurrently; run under -race it shakes out data
// races in the work-set scheduling (CI runs it explicitly in the race
// job).
func TestFrontierSchedulerStress(t *testing.T) {
	ks := frontierKernels()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := ks[i%len(ks)]
			want := grid.New(40, 35, k.DSize())
			RunSerial(k, want)
			ex := New(1 + i%4)
			defer ex.Close()
			for rep := 0; rep < 8; rep++ {
				got := grid.New(40, 35, k.DSize())
				var err error
				if rep%2 == 0 {
					err = ex.RunIrregular(context.Background(), k, got, 1+rep%7)
				} else {
					f := grid.NewIrregularFrontier(40, 35, kernels.StencilOf(k), kernels.LiveOf(k, 40, 35))
					err = ex.RunFrontier(context.Background(), k, got, f)
				}
				if err != nil {
					t.Errorf("goroutine %d rep %d: %v", i, rep, err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("goroutine %d rep %d: result differs from serial", i, rep)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
