package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/tunecache"
)

const (
	// hitSetSize is the number of distinct instances tune-hit cycles
	// through; well under the cache's default 512-plan capacity, so all
	// stay resident.
	hitSetSize = 256
	// hitSetSeed fixes the tune-hit instance set (the run's seed only
	// orders the ops), so its warm-up is the same work on every run.
	hitSetSeed = 1
	// warmSeed fixes the warm-up stream of the miss and refine
	// workloads for the same reason.
	warmSeed = 0x5eed
	// Discarded warm-up ops, part of each set-up. The miss warm-up
	// overfills the default-sized plan cache, so timing starts in the
	// steady state where every miss evicts one plan.
	hitWarmOps    = 1000
	missWarmOps   = tunecache.DefaultCapacity + 64
	refineWarmOps = 8
	// minSide and maxSide bound the generated shapes (the paper's dim
	// range).
	minSide = 500
	maxSide = 3100
)

// request is one instance as the client sends it (body) and as the
// daemon normalizes it (inst).
type request struct {
	body []byte
	inst plan.Instance
}

// workload is one closed-loop traffic pattern. warm runs the discarded
// warm-up (the first request also trains the served tuner), op runs one
// timed operation under the client span root, and check verifies every
// recorded output against the served predictor after timing, returning
// the number of wrong ops.
type workload interface {
	warm(d *daemon) error
	op(d *daemon, root int) error
	check(d *daemon, t core.Predictor) (int, error)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "tune-hit":
		set, err := hitSet()
		if err != nil {
			return nil, err
		}
		return &tuneHit{set: set, rng: rand.New(rand.NewSource(seed)),
			count: make([]uint64, len(set)), sum: make([]uint64, len(set))}, nil
	case "tune-miss":
		return newTuneMiss(seed), nil
	case "refine-jobs":
		return newRefineJobs(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tune-hit, tune-miss or refine-jobs)", name)
}

func randSide(rng *rand.Rand) int { return minSide + rng.Intn(maxSide-minSide+1) }

// hitSet builds the fixed tune-hit instances: every catalog app in turn,
// alternately square and rectangular (square-only apps always square),
// with the synthetic app given random granularity.
func hitSet() ([]request, error) {
	rng := rand.New(rand.NewSource(hitSetSeed))
	catalog := apps.All()
	seen := map[plan.Instance]bool{}
	var out []request
	for i := 0; len(out) < hitSetSize; i++ {
		app := catalog[i%len(catalog)]
		rows := randSide(rng)
		cols := rows
		if !app.SquareOnly && (i/len(catalog))%2 == 1 {
			cols = randSide(rng)
		}
		var params map[string]float64
		if _, ok := app.Param("tsize"); ok {
			params = map[string]float64{"tsize": float64(minTSize + rng.Intn(nTSizes)), "dsize": float64(1 + 2*rng.Intn(nDSizes))}
		}
		inst, _, err := app.InstanceFor(rows, cols, params)
		if err != nil {
			return nil, fmt.Errorf("hit set: %s %dx%d: %w", app.Name, rows, cols, err)
		}
		if seen[inst] {
			continue
		}
		seen[inst] = true
		body, err := json.Marshal(service.TuneRequest{System: servedSystem, Rows: rows, Cols: cols, App: app.Name, Params: params})
		if err != nil {
			return nil, err
		}
		out = append(out, request{body: body, inst: inst})
	}
	return out, nil
}

// The synthetic instance space the miss and refine streams draw from:
// rows and cols in [minSide, maxSide], tsize in [10, 12000], dsize in
// {1, 3, 5}.
const (
	nSides    = maxSide - minSide + 1
	minTSize  = 10
	nTSizes   = 12000 - minTSize + 1
	nDSizes   = 3
	spaceSize = nSides * nSides * nTSizes * nDSizes
	// halfBits is half the width of the Feistel domain, 2^38 > spaceSize.
	halfBits = 19
	halfMask = 1<<halfBits - 1
)

// instStream is a seeded stream of distinct synthetic instances: op k
// gets instance number perm(k) of the space, where perm is a keyed
// Feistel permutation restricted to the space by cycle-walking. No
// instance repeats and nothing needs remembering, so the stream keeps no
// state on the heap that grows with the run. Instances of the fixed
// warm-up stream (skip) are passed over.
type instStream struct {
	keys [4]uint64
	k    uint64
	skip map[plan.Instance]bool
}

func newStream(seed int64, skip map[plan.Instance]bool) *instStream {
	s := &instStream{skip: skip}
	x := uint64(seed)
	for i := range s.keys {
		x += 0x9e3779b97f4a7c15
		s.keys[i] = mix(x)
	}
	return s
}

// streams returns the fixed warm-up stream and the seed's timed stream,
// which passes over the first nWarm warm-up instances.
func streams(seed int64, nWarm int) (warm, timed *instStream) {
	skip := map[plan.Instance]bool{}
	probe := newStream(warmSeed, nil)
	for i := 0; i < nWarm; i++ {
		skip[probe.next()] = true
	}
	return newStream(warmSeed, nil), newStream(seed, skip)
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (s *instStream) perm(x uint64) uint64 {
	for {
		l, r := x>>halfBits, x&halfMask
		for _, k := range s.keys {
			l, r = r, l^(mix(r^k)&halfMask)
		}
		x = l<<halfBits | r
		if x < spaceSize {
			return x
		}
	}
}

func (s *instStream) next() plan.Instance {
	for {
		x := s.perm(s.k)
		s.k++
		dsize := 1 + 2*int(x%nDSizes)
		x /= nDSizes
		tsize := float64(minTSize + x%nTSizes)
		x /= nTSizes
		inst := plan.Instance{Rows: minSide + int(x/nSides), Cols: minSide + int(x%nSides), TSize: tsize, DSize: dsize}.Normalize()
		if !s.skip[inst] {
			return inst
		}
	}
}

// take returns the stream's next n instances.
func (s *instStream) take(n int) []plan.Instance {
	out := make([]plan.Instance, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// tuneBody is the POST /v1/tune (or, with refine, POST /v1/jobs) body
// for a synthetic instance.
func tuneBody(inst plan.Instance, refine bool) []byte {
	rows, cols := inst.Shape()
	tsize, dsize := inst.TSize, inst.DSize
	tr := service.TuneRequest{System: servedSystem, Rows: rows, Cols: cols, TSize: &tsize, DSize: &dsize}
	var body []byte
	if refine {
		body, _ = json.Marshal(service.JobRequest{TuneRequest: tr, Refine: true})
	} else {
		body, _ = json.Marshal(tr)
	}
	return body
}

// fnv64 is an allocation-free FNV-1a hash.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h fnv64) bytes(b []byte) fnv64 {
	for _, c := range b {
		h = (h ^ fnv64(c)) * 1099511628211
	}
	return h
}

func (h fnv64) u64(v uint64) fnv64 {
	for i := 0; i < 8; i++ {
		h = (h ^ fnv64(v&0xff)) * 1099511628211
		v >>= 8
	}
	return h
}

// tuneDigest hashes the decision a tune response carries: the cache
// outcome, the serial flag, the five parameters and both runtimes.
func tuneDigest(r service.TuneResponse) uint64 {
	h := newFNV().bytes([]byte(r.Cache))
	serial := uint64(0)
	if r.Serial {
		serial = 1
	}
	p := r.Params
	for _, v := range []uint64{serial, uint64(p.CPUTile), uint64(p.Band), uint64(p.GPUCount), uint64(p.GPUTile), uint64(p.Halo),
		math.Float64bits(r.RTimeSec), math.Float64bits(r.SerialSec)} {
		h = h.u64(v)
	}
	return uint64(h)
}

// expectedTune is the response the served predictor's own PredictTimed
// implies for inst with the given cache outcome.
func expectedTune(t core.Predictor, inst plan.Instance, outcome string) (service.TuneResponse, error) {
	pred, rtime, serial, err := t.PredictTimed(inst)
	if err != nil {
		return service.TuneResponse{}, err
	}
	return service.TuneResponse{
		Serial: pred.Serial,
		Params: service.TuneParams{
			CPUTile: pred.Par.CPUTile, Band: pred.Par.Band, GPUCount: pred.Par.GPUCount(),
			GPUTile: pred.Par.GPUTile, Halo: pred.Par.Halo,
		},
		RTimeSec: rtime / 1e9, SerialSec: serial / 1e9, Cache: outcome,
	}, nil
}

func postTune(d *daemon, body []byte, root int) ([]byte, error) {
	code, _, resp, err := d.do(http.MethodPost, "/v1/tune", body, root)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/tune: status %d: %s", code, strings.TrimSpace(string(resp)))
	}
	return resp, nil
}

// Client bookkeeping is preallocated, fixed-size or a few bytes per op,
// because the daemon's live heap is only a few MB: records that grew
// with the run would raise the GC's heap goal as the window went on and
// speed the daemon up mid-measurement.

// tuneHit POSTs /v1/tune over a fixed set of resident instances: every
// timed op is a cache hit, so only the serving stack does work.
type tuneHit struct {
	set []request
	rng *rand.Rand
	// Per instance: timed ops and the wrapping sum of their response
	// bodies' FNV-1a hashes. Hits of one instance must all be
	// byte-identical to the response checked after timing.
	count, sum []uint64
}

func (w *tuneHit) warm(d *daemon) error {
	for _, r := range w.set {
		if _, err := postTune(d, r.body, 0); err != nil {
			return err
		}
	}
	for i := 0; i < hitWarmOps; i++ {
		if _, err := postTune(d, w.set[i%len(w.set)].body, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *tuneHit) op(d *daemon, root int) error {
	i := w.rng.Intn(len(w.set))
	body, err := postTune(d, w.set[i].body, root)
	if err != nil {
		return err
	}
	w.count[i]++
	w.sum[i] += uint64(newFNV().bytes(body))
	return nil
}

func (w *tuneHit) check(d *daemon, t core.Predictor) (int, error) {
	bad := 0
	var firstErr error
	for i, r := range w.set {
		body, err := postTune(d, r.body, 0)
		if err != nil {
			return 0, err
		}
		var got service.TuneResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, fmt.Errorf("decoding tune response: %w", err)
		}
		want, err := expectedTune(t, r.inst, "hit")
		if err != nil {
			return 0, err
		}
		switch {
		case tuneDigest(got) != tuneDigest(want):
			err = fmt.Errorf("%v: served %+v, predictor says %+v", r.inst, got, want)
		case w.sum[i] != w.count[i]*uint64(newFNV().bytes(body)):
			err = fmt.Errorf("%v: some of %d timed hits differ from the checked response", r.inst, w.count[i])
		}
		if err != nil {
			bad += int(max(w.count[i], 1))
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	reportCheck(firstErr)
	return bad, nil
}

// tuneMiss POSTs /v1/tune for never-seen instances: every op is a cache
// miss, so the predictor and the analytic estimator do nearly all the
// work.
type tuneMiss struct {
	seed        int64
	warmS, next *instStream
	// digests holds tuneDigest of each timed op's response, in stream
	// order; the check regenerates the stream to compare.
	digests []uint64
}

func newTuneMiss(seed int64) *tuneMiss {
	warm, timed := streams(seed, missWarmOps)
	return &tuneMiss{seed: seed, warmS: warm, next: timed, digests: make([]uint64, 0, 1<<16)}
}

func (w *tuneMiss) warm(d *daemon) error {
	for i := 0; i < missWarmOps; i++ {
		if _, err := postTune(d, tuneBody(w.warmS.next(), false), 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *tuneMiss) op(d *daemon, root int) error {
	body, err := postTune(d, tuneBody(w.next.next(), false), root)
	if err != nil {
		return err
	}
	var resp service.TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding tune response: %w", err)
	}
	w.digests = append(w.digests, tuneDigest(resp))
	return nil
}

func (w *tuneMiss) check(_ *daemon, t core.Predictor) (int, error) {
	_, timed := streams(w.seed, missWarmOps)
	insts := timed.take(len(w.digests))
	// Re-predicting costs as much as serving did, so split it over two
	// goroutines.
	const workers = 2
	var (
		mu       sync.Mutex
		bad      int
		firstErr error
		wg       sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(insts); k += workers {
				want, err := expectedTune(t, insts[k], "miss")
				if err == nil && tuneDigest(want) != w.digests[k] {
					err = fmt.Errorf("op %d %v: served response differs from the predictor's %+v", k, insts[k], want)
				}
				if err != nil {
					mu.Lock()
					bad++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	reportCheck(firstErr)
	return bad, nil
}

// jobRecord is what the check needs from one refine job's GET record.
type jobRecord struct {
	id                 string
	state, cache       string
	serial, refined    bool
	probes, moves      int
	startSec, finalSec float64
}

// refineJobs submits a refine job per op for a fresh instance, waits for
// it with Jobs().Await (no polling cadence in the latency), then fetches
// its record with GET /v1/jobs/{id}. Each op runs a cache miss, up to a
// dozen hill-climb probes and a final measurement, and appends to the
// training log.
type refineJobs struct {
	warmS, next *instStream
	// records holds every job's record, warm-up jobs first.
	records []jobRecord
	warmed  int
}

func newRefineJobs(seed int64) *refineJobs {
	warm, timed := streams(seed, refineWarmOps)
	return &refineJobs{warmS: warm, next: timed, records: make([]jobRecord, 0, 1<<13)}
}

func (w *refineJobs) warm(d *daemon) error {
	for i := 0; i < refineWarmOps; i++ {
		if err := w.run(d, w.warmS.next(), 0); err != nil {
			return err
		}
	}
	w.warmed = len(w.records)
	return nil
}

func (w *refineJobs) op(d *daemon, root int) error { return w.run(d, w.next.next(), root) }

func (w *refineJobs) run(d *daemon, inst plan.Instance, root int) error {
	d.tr.setActive(root)
	sub := d.tr.begin("jobs.submit", root)
	code, hdr, resp, err := d.do(http.MethodPost, "/v1/jobs", tuneBody(inst, true), sub)
	d.tr.end(sub)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("POST /v1/jobs: status %d: %s", code, strings.TrimSpace(string(resp)))
	}
	id := strings.TrimPrefix(hdr.Get("Location"), "/v1/jobs/")
	wait := d.tr.begin("jobs.Await", root)
	_, err = d.srv.Jobs().Await(context.Background(), id)
	d.tr.end(wait)
	if err != nil {
		return fmt.Errorf("awaiting job %s: %w", id, err)
	}
	get := d.tr.begin("jobs.get", root)
	code, _, resp, err = d.do(http.MethodGet, "/v1/jobs/"+id, nil, get)
	d.tr.end(get)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs/%s: status %d", id, code)
	}
	var j service.JobInfo
	if err := json.Unmarshal(resp, &j); err != nil {
		return fmt.Errorf("decoding job record: %w", err)
	}
	rec := jobRecord{id: j.ID, state: j.State}
	if r := j.Result; r != nil {
		rec.cache, rec.serial = r.Cache, r.Serial
		if f := r.Refinement; f != nil {
			rec.refined, rec.probes, rec.moves = true, f.Probes, f.Moves
			rec.startSec, rec.finalSec = f.StartSec, f.FinalSec
		}
	}
	w.records = append(w.records, rec)
	return nil
}

// check requires every refine job (warm-up included) to have succeeded
// as a cache miss with final_sec <= start_sec, and the daemon's
// training-row count to equal the number of non-serial outcomes.
func (w *refineJobs) check(d *daemon, _ core.Predictor) (int, error) {
	bad, nonSerial := 0, 0
	var firstErr error
	for _, j := range w.records {
		var err error
		switch {
		case j.state != "succeeded" || !j.refined:
			err = fmt.Errorf("job %s: state %s, want a succeeded refine", j.id, j.state)
		case j.cache != "miss":
			err = fmt.Errorf("job %s: plan fetch %q, want miss", j.id, j.cache)
		case j.finalSec > j.startSec:
			err = fmt.Errorf("job %s: refined %g s > start %g s", j.id, j.finalSec, j.startSec)
		}
		if err != nil {
			bad++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !j.serial {
			nonSerial++
		}
	}
	st, err := d.stats()
	if err != nil {
		return 0, err
	}
	if rows := int(st.Jobs.TrainingRows); rows != nonSerial && bad == 0 {
		bad += max(rows-nonSerial, nonSerial-rows)
		firstErr = fmt.Errorf("training rows %d, non-serial refine outcomes %d", rows, nonSerial)
	}
	reportCheck(firstErr)
	return bad, nil
}
