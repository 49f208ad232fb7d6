package wavefront

// The observability surface: embedding code gets the daemon's metrics
// registry, trace spans and structured logging without importing
// repro/internal/... directly. A TuningServer owns one registry
// (TuningServer.Telemetry) rendered by GET /metrics in Prometheus text
// format and by the telemetry block of GET /v1/stats; library users can
// also build standalone registries for their own components.

import (
	"context"
	"io"
	"log/slog"

	"repro/internal/telemetry"
)

// MetricsRegistry holds named metric families — counters, gauges,
// fixed-bucket histograms, scrape-time collectors — and renders them in
// Prometheus text format (WritePrometheus, or the http.Handler from
// Handler). Handles are updated lock-free and are safe for concurrent
// use.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry {
	return telemetry.NewRegistry()
}

// TraceSpan is one timed region of a request's trace tree; slow
// requests and jobs log the rendered tree. Safe for concurrent use and
// on a nil receiver (the no-op span untraced paths get).
type TraceSpan = telemetry.Span

// StartRootTraceSpan opens a span unconditionally — the root of a new
// trace — and returns a context carrying it. Open a root where a trace
// is wanted (the daemon's HTTP middleware always does; its job manager
// only when -slow-job is set); StartTraceSpan then grows the tree
// below it.
func StartRootTraceSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return telemetry.StartRootSpan(ctx, name)
}

// StartTraceSpan opens a span as a child of the span in ctx. Without a
// root span in ctx it returns ctx unchanged and a nil no-op span, so
// instrumented hot paths cost nothing when nobody is tracing. Names
// are dot-scoped, subsystem first: "http.request", "cache.lookup",
// "tuner.predict", "job.execute", "engine.measure", "pipeline.wave".
func StartTraceSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return telemetry.StartSpan(ctx, name)
}

// NewRequestID returns a fresh opaque request identifier ("req-" plus
// 8 random hex-encoded bytes), the format the daemon stamps into
// X-Request-ID headers, error bodies and job records.
func NewRequestID() string { return telemetry.NewRequestID() }

// WithRequestID returns a context carrying the request ID, which the
// daemon's job and pipeline records echo.
func WithRequestID(ctx context.Context, id string) context.Context {
	return telemetry.WithRequestID(ctx, id)
}

// NewLogger returns the daemon's structured logger writing to w in the
// encoding a waved -log-format value names: "text" (key=value lines)
// or "json". Lines start with ts (UTC, RFC 3339 with nanoseconds), a
// lowercase level and msg, and durations render as Go duration
// strings. TuningConfig.Logger accepts it.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	return telemetry.NewLogger(w, format)
}
