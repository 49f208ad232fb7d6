package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/service"
)

// servedSystem is the one platform the daemon serves: the dual-GPU
// system, so halo and multi-GPU schedules take part in every estimate.
const servedSystem = "i7-2600K"

// spanHeader carries the client span ID to the wrapped handler in traced
// runs.
const spanHeader = "X-Bench-Span"

// daemon is one in-process tuning server behind a caller-owned
// http.Server on a loopback listener, plus the client that drives it.
type daemon struct {
	sys    hw.System
	srv    *service.Server
	src    service.TunerSource // the default training source, unwrapped
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *tracer
	buf    bytes.Buffer
}

// bootDaemon starts a daemon serving servedSystem with the default
// NewTrainingSource, retraining off, no logging and no slow-request or
// slow-job tracing. Refine jobs append to a training log in logDir. With
// tr non-nil the handler and the predictors are wrapped in the
// benchmark's span recorders (which stay silent until tr is switched
// on).
func bootDaemon(logDir string, tr *tracer) (*daemon, error) {
	sys, ok := hw.ByName(servedSystem)
	if !ok {
		return nil, fmt.Errorf("unknown system %q", servedSystem)
	}
	d := &daemon{sys: sys, src: service.NewTrainingSource(service.TrainingSourceOptions{}), tr: tr}
	var tuners service.TunerSource = d.src
	if tr != nil {
		tuners = tracedSource{inner: d.src, tr: tr}
	}
	srv, err := service.New(service.Config{
		Systems: []hw.System{sys},
		Tuners:  tuners,
		Jobs:    service.JobOptions{TrainingLogDir: logDir},
		Retrain: service.RetrainOptions{Off: true},
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tracedHandler{next: h, tr: tr}
	}
	d.http = &http.Server{Handler: h}
	d.served = make(chan error, 1)
	go func() { d.served <- d.http.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	// One keep-alive connection: the closed loop never has two requests
	// in flight.
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return d, nil
}

// close stops the HTTP server, then drains the daemon (jobs, training
// log), and waits for the serve goroutine to return.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Shutdown(ctx))
}

// tuner returns the served predictor (resolving it trains the tuner on
// first use).
func (d *daemon) tuner() (core.Predictor, error) { return d.src.Tuner(d.sys) }

// do sends one request and reads the whole response into d.buf; the
// returned body is valid until the next call. parent, when non-zero, is
// sent to the wrapped handler as the client span.
func (d *daemon) do(method, path string, body []byte, parent int) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, d.buf.Bytes(), nil
}

// stats fetches GET /v1/stats.
func (d *daemon) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	code, _, body, err := d.do(http.MethodGet, "/v1/stats", nil, 0)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// scrape fetches GET /metrics and returns every sample by its series
// name (labels included, e.g. `x_count{model_kind="tree"}`).
func (d *daemon) scrape() (map[string]float64, error) {
	code, _, body, err := d.do(http.MethodGet, "/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histMean returns the mean of a scraped histogram series (labels in
// exposition syntax, or "") between two scrapes, in microseconds (0 when
// it observed nothing in between).
func histMean(before, after map[string]float64, name, labels string) float64 {
	count, sum := name+"_count"+labels, name+"_sum"+labels
	n := after[count] - before[count]
	if n <= 0 {
		return 0
	}
	return (after[sum] - before[sum]) / n * 1e6
}

// tracedHandler records a span around every call into the daemon's
// Handler(). On the synchronous tune route it also marks the span active
// so predictor calls made while serving attach to it.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := h.tr.begin("service.Handler", parent)
	tune := r.URL.Path == "/v1/tune"
	var prev int
	if tune && id != 0 {
		prev = h.tr.activeSpan()
		h.tr.setActive(id)
	}
	h.next.ServeHTTP(w, r)
	if tune && id != 0 {
		h.tr.setActive(prev)
	}
	h.tr.end(id)
}

// tracedSource wraps the training source so every served predictor is a
// tracedPredictor.
type tracedSource struct {
	inner service.TunerSource
	tr    *tracer
}

func (s tracedSource) Tuner(sys hw.System) (core.Predictor, error) {
	t, err := s.inner.Tuner(sys)
	if err != nil {
		return nil, err
	}
	return tracedPredictor{Predictor: t, tr: s.tr}, nil
}

// tracedPredictor splits PredictTimed into its three calls — the model
// (Predict), the estimator for the decision (RTimeFor) and the serial
// baseline (engine.SerialNs) — with a span around each, so the model's
// share of a miss is measured on its own. With tracing off it defers to
// the wrapped PredictTimed.
type tracedPredictor struct {
	core.Predictor
	tr *tracer
}

func (p tracedPredictor) PredictTimed(inst plan.Instance) (core.Prediction, float64, float64, error) {
	id := p.tr.begin("core.PredictTimed", p.tr.activeSpan())
	if id == 0 {
		return p.Predictor.PredictTimed(inst)
	}
	defer p.tr.end(id)
	s := p.tr.begin("core.Predict", id)
	pred := p.Predictor.Predict(inst)
	p.tr.end(s)
	s = p.tr.begin("engine.RTimeFor", id)
	rtime, err := p.Predictor.RTimeFor(inst, pred)
	p.tr.end(s)
	if err != nil {
		return core.Prediction{}, 0, 0, err
	}
	s = p.tr.begin("engine.SerialNs", id)
	serial := engine.SerialNs(p.System(), inst)
	p.tr.end(s)
	return pred, rtime, serial, nil
}
