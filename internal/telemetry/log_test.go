package telemetry

import (
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestLogger(t *testing.T, w io.Writer, format string) *slog.Logger {
	t.Helper()
	l, err := NewLogger(w, format)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoggerTextFormat(t *testing.T) {
	var b strings.Builder
	l := newTestLogger(t, &b, "text")
	l.Info("request done", "route", "tune", "status", 200, "dur", 1500*time.Microsecond, "note", "two words")
	line := strings.TrimSpace(b.String())
	for _, want := range []string{
		"ts=", "level=info", `msg="request done"`,
		"route=tune", "status=200", "dur=1.5ms", `note="two words"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("text line missing %q: %s", want, line)
		}
	}
	if !strings.HasPrefix(line, "ts=") {
		t.Errorf("text line must start with ts=: %s", line)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var b strings.Builder
	l := newTestLogger(t, &b, "json")
	l.Info("request done", "route", "tune", "status", 200, "p50_sec", 0.25, "dur", 1500*time.Microsecond)
	var obj map[string]any
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatalf("JSON line does not parse: %v: %s", err, b.String())
	}
	if obj["level"] != "info" || obj["msg"] != "request done" || obj["route"] != "tune" {
		t.Fatalf("unexpected fields: %v", obj)
	}
	if v, ok := obj["status"].(float64); !ok || v != 200 {
		t.Fatalf("status should stay numeric, got %T %v", obj["status"], obj["status"])
	}
	if obj["dur"] != "1.5ms" {
		t.Fatalf("dur should be a duration string, got %T %v", obj["dur"], obj["dur"])
	}
	ts, ok := obj["ts"].(string)
	if !ok {
		t.Fatalf("ts missing: %v", obj)
	}
	if at, err := time.Parse(time.RFC3339Nano, ts); err != nil || at.Location() != time.UTC {
		t.Fatalf("ts %q is not RFC3339Nano UTC (%v)", ts, err)
	}
}

func TestLoggerWithFields(t *testing.T) {
	var b strings.Builder
	l := newTestLogger(t, &b, "json").With("request_id", "req-1")
	l.Info("a")
	l.Error("b")
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatal(err)
		}
		if obj["request_id"] != "req-1" {
			t.Fatalf("line %d missing bound field: %s", i, line)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["level"] != "error" {
		t.Fatalf("Error() level = %v", last["level"])
	}
}

func TestNewLoggerFormats(t *testing.T) {
	for in, wantJSON := range map[string]bool{
		"": false, "text": false, "kv": false, "logfmt": false,
		"json": true, "JSON": true,
	} {
		var b strings.Builder
		l, err := NewLogger(&b, in)
		if err != nil {
			t.Errorf("NewLogger(%q): %v", in, err)
			continue
		}
		l.Info("m")
		if got := strings.HasPrefix(b.String(), "{"); got != wantJSON {
			t.Errorf("NewLogger(%q) wrote %q, want JSON=%v", in, b.String(), wantJSON)
		}
	}
	if _, err := NewLogger(&strings.Builder{}, "xml"); err == nil {
		t.Error("NewLogger should reject unknown formats")
	}
}

// TestLoggerConcurrentLinesDoNotTear writes from many goroutines and
// checks every emitted line is independently well-formed JSON.
func TestLoggerConcurrentLinesDoNotTear(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	l := newTestLogger(t, writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	}), "json")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info("m", "worker", i, "j", j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
