// Command perfbench is the repository's end-to-end benchmark of the
// tuning daemon. It boots internal/service in-process (one served
// system, the default lazily trained tuner, retraining off), serves it
// through its own http.Server on a loopback listener, and drives one of
// three closed-loop, single-connection workloads for a fixed time:
//
//	tune-hit     POST /v1/tune over 256 resident instances (serving stack only)
//	tune-miss    POST /v1/tune for never-seen instances (predictor + estimator)
//	refine-jobs  POST /v1/jobs {"refine":true}, Jobs().Await, GET /v1/jobs/{id}
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// an untraced and a traced window and prints the per-layer metrics from
// the benchmark's own spans, the daemon's /metrics and /v1/stats, and a
// deterministic allocation-counts pass. Every run checks the daemon's
// outputs after timing; the last stdout line is the JSON result. See
// DESIGN.md for what each metric should move. Run it from the module
// root through run.sh:
//
//	bash perfbench/run.sh --workload tune-miss --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// refinePrefix is how many timed refine jobs the probe counts average
// over.
const refinePrefix = 32

// setupRuns is how many times a -trace 0 run sets the daemon up; setup_s
// is their median and the last one is measured.
const setupRuns = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "tune-hit, tune-miss or refine-jobs")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's instance sequence")
	flag.IntVar(&o.seconds, "seconds", 10, "length of a timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func reportCheck(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

func run(o options) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := newWorkload(o.workload, o.seed); err != nil {
		return nil, err
	}
	workdir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	defer os.RemoveAll(workdir)
	var tr *tracer
	setups := setupRuns
	if o.trace {
		tr, setups = newTracer(), 1
	}
	d, w, setupTimes, err := setUp(o, workdir, setups, tr)
	if err != nil {
		return nil, err
	}
	res, err := measure(o, d, w, setupTimes)
	if cerr := d.close(); cerr != nil && err == nil {
		err = fmt.Errorf("shutting the daemon down: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp boots the daemon and warms the workload n times, timing each
// (boot, the lazy quick-space search and fit for the served system, and
// the workload's warm-up) in unstolen seconds, and keeps the last daemon
// for measuring.
func setUp(o options, workdir string, n int, tr *tracer) (*daemon, workload, []float64, error) {
	times := make([]float64, 0, n)
	for {
		runtime.GC()
		u0 := readUsage()
		t0 := time.Now()
		d, err := bootDaemon(filepath.Join(workdir, fmt.Sprintf("log%d", len(times))), tr)
		if err != nil {
			return nil, nil, nil, err
		}
		w, err := newWorkload(o.workload, o.seed)
		if err == nil {
			err = w.warm(d)
		}
		times = append(times, time.Since(t0).Seconds()*readUsage().since(u0).unstolen())
		if err == nil && len(times) == n {
			return d, w, times, nil
		}
		if err = errors.Join(err, d.close()); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
}

func (r *result) put(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func measure(o options, d *daemon, w workload, setupTimes []float64) (*result, error) {
	t, err := d.tuner()
	if err != nil {
		return nil, err
	}
	dur := time.Duration(o.seconds) * time.Second
	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		err = perLayer(o, d, w, t, dur, res)
	} else {
		err = endToEnd(o, d, w, t, dur, setupTimes, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// endToEnd measures the tuner's quality, runs the untraced timed window
// and checks its outputs.
func endToEnd(o options, d *daemon, w workload, t core.Predictor, dur time.Duration, setupTimes []float64, res *result) error {
	eff, err := tuneEfficiency(t)
	if err != nil {
		return err
	}
	win := runWindow(d, w, dur)
	bad, err := w.check(d, t)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = win.ops, win.failed+bad
	// Wall-clock figures count only the time the hypervisor did not
	// steal from the VM (see DESIGN.md).
	free := win.used.unstolen()
	width := dur.Seconds() / nSlices
	ops := win.sliceMedian(func(s *sliceStats) float64 { return float64(s.lat.n) / width })
	p50 := win.sliceMedian(func(s *sliceStats) float64 { return s.lat.quantile(0.50) })
	p90 := win.sliceMedian(func(s *sliceStats) float64 { return s.lat.quantile(0.90) })
	res.put("ops_per_s", "1/s", ops/free)
	res.put("latency_p50_us", "us", p50*free)
	res.put("latency_p90_us", "us", p90*free)
	res.put("setup_s", "s", median(setupTimes))
	res.put("cpu_us_per_op", "us", ratio(win.used.cpu*1e6, float64(win.ops)))
	res.put("heap_peak_mb", "MB", win.sliceMedian(func(s *sliceStats) float64 { return float64(s.heapPeak) })/(1<<20))
	res.put("tune_efficiency", "ratio", eff)
	perSlice := make([]int, nSlices)
	for i, x := range win.slices {
		perSlice[i] = x.lat.n
	}
	fmt.Printf("perfbench %s seed %d: %d ops in %.2f s, %d failed, %d wrong; medians over %d slices of %v ops, before removing %.1f%% host steal: %.1f ops/s, latency p50 %.1f us, p90 %.1f us; set-ups %.3f s\n",
		o.workload, o.seed, win.ops, win.elapsed.Seconds(), win.failed, bad, nSlices, perSlice,
		100*(1-free), ops, p50, p90, setupTimes)
	return nil
}

// perLayer runs an untraced window (throughput and runtime counters),
// then a traced one bracketed by /metrics and /v1/stats scrapes, checks
// both windows' outputs, and ends with the deterministic counts pass.
func perLayer(o options, d *daemon, w workload, t core.Predictor, dur time.Duration, res *result) error {
	plain := runWindow(d, w, dur)
	before, err := d.scrape()
	if err != nil {
		return err
	}
	st0, err := d.stats()
	if err != nil {
		return err
	}
	d.tr.on.Store(true)
	traced := runWindow(d, w, dur)
	d.tr.on.Store(false)
	after, err := d.scrape()
	if err != nil {
		return err
	}
	st1, err := d.stats()
	if err != nil {
		return err
	}
	bad, err := w.check(d, t)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = plain.ops+traced.ops, plain.failed+traced.failed+bad

	spans := d.tr.snapshot()
	sp := summarize(spans)
	handlers := sp.count["service.Handler"]
	var roundTrip time.Duration
	for parent, kids := range sp.childOf {
		if h, ok := kids["service.Handler"]; ok {
			roundTrip += sp.total[parent] - h
		}
	}
	res.put("service.handler_us", "us", us(sp.mean("service.Handler")))
	res.put("service.transport_us", "us", ratio(us(roundTrip), float64(handlers)))
	res.put("core.model_ns", "ns", float64(sp.mean("core.Predict")))

	res.put("tunecache.lookup_us", "us", histMean(before, after, "waved_cache_lookup_duration_seconds", ""))
	res.put("core.predict_us", "us", histMean(before, after, "waved_tuner_predict_duration_seconds", `{model_kind="tree"}`))
	res.put("engine.measure_us", "us", histMean(before, after, "waved_engine_measure_seconds", ""))
	res.put("jobs.queue_wait_us", "us", histMean(before, after, "waved_job_queue_wait_seconds", ""))
	res.put("jobs.exec_us", "us", histMean(before, after, "waved_job_execution_seconds", ""))
	c0, c1 := st0.Cache, st1.Cache
	res.put("tunecache.hit_ratio", "ratio", ratio(float64(c1.Hits-c0.Hits), float64(c1.Lookups()-c0.Lookups())))
	res.put("tunecache.evictions", "count", float64(c1.Evictions-c0.Evictions))
	res.put("jobs.training_rows", "count", float64(st1.Jobs.TrainingRows))

	var probes, moves, refined float64
	if rj, ok := w.(*refineJobs); ok {
		// A fixed prefix of the timed jobs, so the counts repeat exactly
		// at one seed.
		first := rj.records[rj.warmed:min(rj.warmed+refinePrefix, len(rj.records))]
		for _, j := range first {
			probes += float64(j.probes)
			moves += float64(j.moves)
		}
		refined = float64(len(first))
	}
	res.put("core.refine_probes", "count", ratio(probes, refined))
	res.put("core.refine_moves_per_probe", "ratio", ratio(moves, probes))

	u := plain.used
	res.put("runtime.gc_cycles", "count", u.gcCycles)
	res.put("runtime.gc_cpu_share", "ratio", ratio(u.gcCPU, u.cpu))
	res.put("runtime.alloc_kb_per_op", "KB", ratio(u.allocBytes/1024, float64(plain.ops)))
	res.put("trace.overhead_ratio", "ratio", ratio(traced.opsPerSec(), plain.opsPerSec()))

	if err := measureCounts(d, t, o.seed, res); err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed %d traced: %d untraced + %d traced ops, %d failed, %d wrong; %d spans; trace overhead %.3f\n",
		o.workload, o.seed, plain.ops, traced.ops, plain.failed+traced.failed, bad,
		len(spans), res.Metrics["trace.overhead_ratio"].Value)
	return nil
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heldOut is the tune_efficiency instance set: shapes and granularities
// outside the quick space the tuner is trained on.
var heldOut = []plan.Instance{
	{Dim: 700, TSize: 50, DSize: 3},
	{Dim: 700, TSize: 8000, DSize: 3},
	{Dim: 1500, TSize: 2000, DSize: 3},
	{Dim: 1500, TSize: 300, DSize: 1},
	{Dim: 3100, TSize: 50, DSize: 3},
	{Dim: 3100, TSize: 8000, DSize: 5},
	{Rows: 600, Cols: 2400, TSize: 500, DSize: 1},
	{Rows: 2400, Cols: 900, TSize: 6000, DSize: 5},
}

// tuneEfficiency is the paper's quality metric for the served tuner: the
// mean of autotuned over exhaustive-best speedup on heldOut, searched
// over the quick space's parameter grids.
func tuneEfficiency(t core.Predictor) (float64, error) {
	pts, err := core.Evaluate(t, core.QuickSpace(), heldOut)
	if err != nil {
		return 0, err
	}
	return core.MeanEfficiency(pts), nil
}

// usage is what the process and the host have spent so far.
type usage struct {
	gcCycles, gcCPU, allocBytes float64 // Go runtime: cycles, GC CPU seconds, bytes allocated
	cpu                         float64 // process CPU seconds, every thread
	steal, ticks                float64 // host CPU ticks: stolen by the hypervisor, all
}

func readUsage() usage {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	u := usage{
		gcCycles:   float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	// The first line of /proc/stat sums every CPU's ticks; the eighth
	// count is steal. Absent off Linux, which only blanks the summary.
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			u.ticks += v
			if i == 7 {
				u.steal = v
			}
		}
	}
	return u
}

// unstolen returns the share of the host's CPU time in u that the
// hypervisor did not steal (1 where the host does not report steal).
func (u usage) unstolen() float64 { return 1 - ratio(u.steal, u.ticks) }

// since returns u minus an earlier snapshot.
func (u usage) since(e usage) usage {
	return usage{
		gcCycles: u.gcCycles - e.gcCycles, gcCPU: u.gcCPU - e.gcCPU, allocBytes: u.allocBytes - e.allocBytes,
		cpu: u.cpu - e.cpu, steal: u.steal - e.steal, ticks: u.ticks - e.ticks,
	}
}

// nSlices is how many equal time slices a window is cut into; the
// end-to-end figures are medians over slices, so a burst of outside load
// in one slice does not move them.
const nSlices = 8

type windowResult struct {
	ops, failed int
	elapsed     time.Duration
	slices      [nSlices]sliceStats
	used        usage
}

func (r windowResult) opsPerSec() float64 { return ratio(float64(r.ops), r.elapsed.Seconds()) }

// sliceStats is one time slice of a window: the ops that completed in
// it and the largest heap seen.
type sliceStats struct {
	lat      latHist
	heapPeak uint64
}

// sliceMedian returns the median over the window's slices of f.
func (r *windowResult) sliceMedian(f func(*sliceStats) float64) float64 {
	v := make([]float64, nSlices)
	for i := range r.slices {
		v[i] = f(&r.slices[i])
	}
	return median(v)
}

// latHist is a log-bucketed latency histogram of about 0.5% resolution
// from 1 ns to 100 s, allocated once.
type latHist struct {
	counts []uint32
	n      int
}

const (
	histPerE    = 200 // buckets per factor of e
	histBuckets = 26 * histPerE
)

func newLatHist() latHist { return latHist{counts: make([]uint32, histBuckets)} }

func (h *latHist) add(d time.Duration) {
	i := int(math.Log(float64(max(d, 1))) * histPerE)
	h.counts[min(i, histBuckets-1)]++
	h.n++
}

// quantile returns the q-quantile in microseconds (the bucket's
// geometric midpoint), or 0 for an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint32(q * float64(h.n-1))
	var seen uint32
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return math.Exp((float64(i)+0.5)/histPerE) / 1e3
		}
	}
	return 0
}

// runWindow runs the closed loop for dur after a GC, sampling the heap
// every few milliseconds. A failed op is counted and the loop goes on.
func runWindow(d *daemon, w workload, dur time.Duration) windowResult {
	var r windowResult
	for i := range r.slices {
		r.slices[i].lat = newLatHist()
	}
	width := dur / nSlices
	peaks := make(chan [nSlices]uint64, 1)
	stop := make(chan struct{})
	runtime.GC()
	u0 := readUsage()
	start := time.Now()
	go func() { peaks <- sampleHeap(start, width, stop) }()
	deadline := start.Add(dur)
	var firstErr error
	for now := start; now.Before(deadline); {
		root := d.tr.begin("client.op", 0)
		err := w.op(d, root)
		d.tr.end(root)
		end := time.Now()
		if err != nil {
			r.failed++
			if firstErr == nil {
				firstErr = err
			}
		} else {
			r.slices[min(int(end.Sub(start)/width), nSlices-1)].lat.add(end.Sub(now))
		}
		r.ops++
		now = end
	}
	r.elapsed = time.Since(start)
	r.used = readUsage().since(u0)
	close(stop)
	for i, p := range <-peaks {
		r.slices[i].heapPeak = p
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops failed, first: %v\n", r.failed, firstErr)
	}
	return r
}

// sampleHeap samples the heap-object footprint every few milliseconds
// until stop closes, and returns the largest seen in each time slice of
// the given width.
func sampleHeap(start time.Time, width time.Duration, stop <-chan struct{}) [nSlices]uint64 {
	var peaks [nSlices]uint64
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		i := min(int(time.Since(start)/width), nSlices-1)
		peaks[i] = max(peaks[i], s[0].Value.Uint64())
		select {
		case <-stop:
			return peaks
		case <-tick.C:
		}
	}
}
