package wavefront

// The serving surface: the paper's "train once, predict per instance"
// deployment exposed as a long-running component. PlanCache memoizes
// tuned decisions per (system, instance); TuningServer wraps it in the
// HTTP protocol served by cmd/waved, whose jobs, pipelines and
// retraining are reached over HTTP; TuneBatch is the batch client. As
// with the rest of this package, the types are aliases of the internal
// implementation so downstream code never imports repro/internal/...
// directly.

import (
	"context"
	"net/http"

	"repro/internal/service"
	"repro/internal/tunecache"
)

// PlanCache is a concurrency-safe sharded LRU cache of tuned plans with
// singleflight deduplication of concurrent misses and JSON persistence.
// Keys hash onto independently locked shards, so concurrent lookups on
// different keys never contend on one mutex.
type PlanCache = tunecache.Cache

// CachedPlan is a cached tuning decision with its modeled runtimes.
type CachedPlan = tunecache.Plan

// PredictFunc fills PlanCache misses; it runs exactly once per missing
// key regardless of how many callers wait on it. Its context is the
// leading caller's (PlanCache.GetCtx), so that caller's trace span
// reaches the fill; plain PlanCache.Get passes context.Background().
type PredictFunc = tunecache.PredictFunc

// TuningServer is the HTTP tuning daemon: POST /v1/tune, the
// POST/GET/DELETE /v1/jobs job routes, GET /v1/systems, GET /v1/stats,
// GET /healthz. Its job manager is reachable via Jobs().
type TuningServer = service.Server

// TuningConfig configures NewTuningServer.
type TuningConfig = service.Config

// TunerSource lazily resolves the tuner for a system (trained on demand,
// loaded from disk, or served from memory).
type TunerSource = service.TunerSource

// TrainingSourceOptions configure NewTrainingTunerSource.
type TrainingSourceOptions = service.TrainingSourceOptions

// NewPlanCache creates a plan cache bounded to capacity entries
// (capacity <= 0 selects the default) filling misses through predict,
// split across the given number of independently locked shards (shards
// <= 0 selects GOMAXPROCS; the count is clamped so every shard keeps a
// useful LRU slice, meaning small caches stay unsharded with exact LRU
// semantics).
func NewPlanCache(capacity, shards int, predict PredictFunc) *PlanCache {
	return tunecache.New(capacity, shards, predict)
}

// NewTuningServer builds the tuning daemon from cfg. The zero config
// serves every Table 4 system with lazily trained quick-space tuners.
func NewTuningServer(cfg TuningConfig) (*TuningServer, error) {
	return service.New(cfg)
}

// TuneRequest is one tune query in the daemon's wire format: the
// instance shape plus either explicit granularity or a named catalog
// application (the per-item element of BatchTuneRequest).
type TuneRequest = service.TuneRequest

// BatchTuneRequest is the body of POST /v1/tune/batch: up to the
// daemon's batch limit of tune queries answered in one round trip, with
// repeated shapes deduplicated server-side.
type BatchTuneRequest = service.BatchTuneRequest

// DefaultBatchLimit is the daemon's default cap on items per batch
// request (waved -batch-limit overrides it); clients submitting more
// shapes than this should chunk.
const DefaultBatchLimit = service.DefaultBatchLimit

// BatchTuneResponse is the reply of POST /v1/tune/batch; Results aligns
// index-for-index with the request's items.
type BatchTuneResponse = service.BatchTuneResponse

// BatchTuneResult is one batch item's outcome: a tune response, or an
// error scoped to that item alone.
type BatchTuneResult = service.BatchTuneResult

// TuneBatch submits a batch of tune queries to the daemon at baseURL
// (e.g. "http://localhost:8080") in one POST /v1/tune/batch round trip.
// client == nil selects http.DefaultClient. Per-item failures are
// reported in the result slice; only a rejected batch (too many items,
// malformed request, unreachable daemon) returns an error.
func TuneBatch(ctx context.Context, client *http.Client, baseURL string, req BatchTuneRequest) (*BatchTuneResponse, error) {
	return service.BatchTune(ctx, client, baseURL, req)
}

// NewTrainingTunerSource returns a TunerSource that trains a tuner per
// system on first use (the wavetrain "factory" path, run lazily).
func NewTrainingTunerSource(opts TrainingSourceOptions) TunerSource {
	return service.NewTrainingSource(opts)
}

// NewDirTunerSource returns a TunerSource that loads
// "<dir>/<system>.json" tuner files written by Tuner.Save
// (wavetrain -save).
func NewDirTunerSource(dir string) TunerSource {
	return service.NewDirSource(dir)
}

// NewStaticTunerSource serves the given pre-built predictors of any
// backend kind, indexed by system name.
func NewStaticTunerSource(tuners ...Predictor) TunerSource {
	return service.NewStaticSource(tuners...)
}

// JobOptions is the service-level job configuration consumed by
// TuningConfig.Jobs (worker/queue bounds, refine budget, training log).
type JobOptions = service.JobOptions

// RetrainOptions configure the daemon's background champion/challenger
// retrainer (TuningConfig.Retrain): loop thresholds, holdout fraction
// and the promotion guardrail. The retrainer runs whenever a training
// log directory is configured and Off is false.
type RetrainOptions = service.RetrainOptions
