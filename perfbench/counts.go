package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
)

// Sizes of the deterministic counts pass.
const (
	countHitInsts   = 16   // resident instances the hit counts cycle over
	countHandlerOps = 128  // Handler() calls
	countGetOps     = 4096 // Cache.Get calls
	countEstInsts   = 64   // tune-miss instances replayed through Estimate
)

// countRounds is how many times allocsPer repeats a measurement.
const countRounds = 3

// allocsPer calls f(round, 0..n-1) for countRounds rounds on one P with
// the collector paused, and returns the allocations and bytes per call
// of the round that allocated least. This keeps the counts exact: a
// collection empties the sync.Pools and the runtime's sudog cache, a
// goroutine moving between Ps misses its pool, and changing GOMAXPROCS
// resets the pools once, each adding a timing-dependent few
// allocations. Callers keep a round's garbage small (at most ~100 MB).
func allocsPer(n int, f func(round, i int)) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best, bestBytes := uint64(math.MaxUint64), uint64(0)
	for round := 0; round < countRounds; round++ {
		runtime.GC()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			f(round, i)
		}
		runtime.ReadMemStats(&b)
		if m := b.Mallocs - a.Mallocs; m < best {
			best, bestBytes = m, b.TotalAlloc-a.TotalAlloc
		}
	}
	runtime.GC()
	return float64(best) / float64(n), float64(bestBytes) / float64(n)
}

// measureCounts is the deterministic counts pass, run after timing with
// the daemon idle: allocations per Handler() hit, per resident
// Cache.Get, per engine.Estimate over the seed's tune-miss instances
// with their served plans, and for the set-up search and fit.
func measureCounts(d *daemon, t core.Predictor, seed int64, res *result) error {
	set, err := hitSet()
	if err != nil {
		return err
	}
	set = set[:countHitInsts]
	cache := d.srv.Cache()
	for _, r := range set {
		if _, _, err := cache.Get(servedSystem, r.inst); err != nil {
			return err
		}
	}

	reqs := make([][]*http.Request, countRounds)
	recs := make([][]*httptest.ResponseRecorder, countRounds)
	for r := range reqs {
		for i := 0; i < countHandlerOps; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(set[i%len(set)].body))
			req.Header.Set("Content-Type", "application/json")
			reqs[r] = append(reqs[r], req)
			recs[r] = append(recs[r], httptest.NewRecorder())
		}
	}
	h := d.srv.Handler()
	allocs, b := allocsPer(countHandlerOps, func(r, i int) { h.ServeHTTP(recs[r][i], reqs[r][i]) })
	res.put("service.handler_allocs", "count", allocs)
	res.put("service.handler_bytes", "B", b)
	for _, rec := range slices.Concat(recs...) {
		var resp service.TuneResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Cache != "hit" {
			return fmt.Errorf("counts pass: handler hit answered %d: %s", rec.Code, rec.Body.String())
		}
	}

	var getErr error
	allocs, b = allocsPer(countGetOps, func(_, i int) {
		if _, _, err := cache.Get(servedSystem, set[i%len(set)].inst); err != nil {
			getErr = err
		}
	})
	if getErr != nil {
		return getErr
	}
	res.put("tunecache.get_allocs", "count", allocs)
	res.put("tunecache.get_bytes", "B", b)

	_, timed := streams(seed, missWarmOps)
	var insts []plan.Instance
	var pars []plan.Params
	for _, inst := range timed.take(countEstInsts) {
		if pred := t.Predict(inst); !pred.Serial {
			insts, pars = append(insts, inst), append(pars, pred.Par)
		}
	}
	if len(insts) == 0 {
		return fmt.Errorf("counts pass: every replayed instance was predicted serial")
	}
	// Timed with the collector running, as in service; counted one call
	// at a time so the paused collector never holds more than one
	// call's garbage.
	var estErr error
	estimate := func(i int) {
		if _, err := engine.Estimate(d.sys, insts[i], pars[i], engine.Options{}); err != nil {
			estErr = err
		}
	}
	t0 := time.Now()
	for i := range insts {
		estimate(i)
	}
	res.put("engine.estimate_us", "us", us(time.Since(t0))/float64(len(insts)))
	allocs, b = 0, 0
	for i := range insts {
		x, y := allocsPer(1, func(int, int) { estimate(i) })
		allocs, b = allocs+x, b+y
	}
	if estErr != nil {
		return estErr
	}
	res.put("engine.estimate_allocs", "count", allocs/float64(len(insts)))
	res.put("engine.estimate_kb", "KB", b/float64(len(insts))/1024)

	// The set-up search, timed whole; its allocations are summed over
	// one-instance searches of the same space for the same reason.
	space := core.QuickSpace()
	t0 = time.Now()
	sr, err := core.Exhaustive(d.sys, space, core.SearchOptions{})
	if err != nil {
		return err
	}
	res.put("core.search_s", "s", time.Since(t0).Seconds())
	res.put("core.search_evals", "count", float64(sr.Evaluations()))
	allocs, b = 0, 0
	for _, inst := range space.Instances() {
		one := space
		one.Dims, one.TSizes, one.DSizes = []int{inst.Dim}, []float64{inst.TSize}, []int{inst.DSize}
		x, y := allocsPer(1, func(int, int) { _, err = core.Exhaustive(d.sys, one, core.SearchOptions{}) })
		if err != nil {
			return err
		}
		allocs, b = allocs+x, b+y
	}
	res.put("core.exhaustive_allocs", "count", allocs)
	res.put("core.exhaustive_mb", "MB", b/(1<<20))
	t0 = time.Now()
	if _, err := core.TrainPredictor("", sr, core.TrainOptions{}); err != nil {
		return err
	}
	res.put("core.train_ms", "ms", float64(time.Since(t0))/1e6)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
