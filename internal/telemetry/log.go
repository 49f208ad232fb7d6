package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger returns a structured logger writing to w in the encoding a
// -log-format flag names: "text" (key=value lines; also "kv", "logfmt"
// or empty) or "json" (one object per line). Every line starts with ts
// (UTC, RFC 3339 with nanoseconds), a lowercase level and msg, and
// durations render as Go duration strings ("1.5ms") in both encodings.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{ReplaceAttr: replaceLogAttr}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text", "kv", "logfmt":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

func replaceLogAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 {
		switch a.Key {
		case slog.TimeKey:
			return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
		case slog.LevelKey:
			return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
		}
	}
	if a.Value.Kind() == slog.KindDuration {
		return slog.String(a.Key, a.Value.Duration().String())
	}
	return a
}
