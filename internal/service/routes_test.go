package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRouteContract drives every path of the route table with every
// common method and pins the answer: served methods never get a 405;
// other methods get a 405 with the path's exact Allow value, a JSON
// error body carrying the request ID, and one more error under the
// route's label. Paths under a collection that name no item answer a
// JSON 404, unknown paths a plain 404 under "other", /healthz 200 to
// any method, and /metrics leaves method checks to the exposition
// handler.
func TestRouteContract(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})

	// Allow values per path, as the daemon has always answered them.
	allow := map[string]string{
		"/v1/tune":           "POST",
		"/v1/tune/batch":     "POST",
		"/v1/jobs":           "GET, POST",
		"/v1/jobs/{id}":      "DELETE, GET",
		"/v1/pipelines":      "DELETE, GET, POST",
		"/v1/pipelines/{id}": "DELETE, GET",
		"/v1/apps":           "GET",
		"/v1/systems":        "GET",
		"/v1/stats":          "GET",
		"/healthz":           "",
		"/metrics":           "",
		"/v1/jobs/":          "",
		"/v1/pipelines/":     "",
		"/":                  "",
	}
	methods := []string{http.MethodGet, http.MethodHead, http.MethodPost,
		http.MethodPut, http.MethodPatch, http.MethodDelete}

	do := func(method, path string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	// checkJSONError asserts the error body (absent on HEAD) echoes the
	// response's request ID, and that the route's error count rose by
	// one.
	checkJSONError := func(method, path, label string, before uint64, resp *http.Response, body []byte) {
		t.Helper()
		if got := s.m.routes[label].errors.Value(); got != before+1 {
			t.Errorf("%s %s: errors{route=%q} %d -> %d, want +1", method, path, label, before, got)
		}
		if method == http.MethodHead {
			return
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: body is not a JSON error: %q", method, path, body)
		}
		if id := resp.Header.Get("X-Request-ID"); id == "" || e.RequestID != id {
			t.Errorf("%s %s: body request_id %q, header %q", method, path, e.RequestID, id)
		}
	}

	seen := map[string]bool{}
	for _, rt := range s.routes() {
		_, pattern, ok := strings.Cut(rt.pattern, " ")
		if !ok {
			pattern = rt.pattern
		}
		if seen[pattern] {
			continue
		}
		seen[pattern] = true
		want, pinned := allow[pattern]
		if !pinned {
			t.Errorf("route %q has no pinned contract", rt.pattern)
			continue
		}
		for _, method := range methods {
			switch pattern {
			case "/healthz":
				if resp, _ := do(method, pattern); resp.StatusCode != http.StatusOK {
					t.Errorf("%s /healthz: status %d, want 200", method, resp.StatusCode)
				}
			case "/metrics":
				resp, _ := do(method, pattern)
				get := method == http.MethodGet || method == http.MethodHead
				if get && resp.StatusCode != http.StatusOK ||
					!get && (resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET") {
					t.Errorf("%s /metrics: status %d Allow %q", method, resp.StatusCode, resp.Header.Get("Allow"))
				}
			case "/v1/jobs/", "/v1/pipelines/":
				for _, path := range []string{pattern, pattern + "a/b"} {
					before := s.m.routes[rt.label].errors.Value()
					resp, body := do(method, path)
					if resp.StatusCode != http.StatusNotFound {
						t.Errorf("%s %s: status %d, want 404", method, path, resp.StatusCode)
					}
					checkJSONError(method, path, rt.label, before, resp, body)
				}
			case "/":
				code := s.m.responses.With("other", "404")
				before := code.Value()
				if resp, _ := do(method, "/does/not/exist"); resp.StatusCode != http.StatusNotFound {
					t.Errorf("%s /does/not/exist: status %d, want 404", method, resp.StatusCode)
				}
				waitFor(t, "other 404 count", func() bool { return code.Value() == before+1 })
			default:
				path := strings.ReplaceAll(pattern, "{id}", "x-1")
				served := strings.Contains(", "+want+",", ", "+method+",") ||
					method == http.MethodHead && strings.Contains(", "+want+",", ", GET,")
				before := s.m.routes[rt.label].errors.Value()
				resp, body := do(method, path)
				if served {
					if resp.StatusCode == http.StatusMethodNotAllowed {
						t.Errorf("%s %s: served method answered 405", method, path)
					}
					continue
				}
				if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != want {
					t.Errorf("%s %s: status %d Allow %q, want 405 Allow %q",
						method, path, resp.StatusCode, resp.Header.Get("Allow"), want)
				}
				checkJSONError(method, path, rt.label, before, resp, body)
			}
		}
	}
	for pattern := range allow {
		if !seen[pattern] {
			t.Errorf("pinned path %q is not in the route table", pattern)
		}
	}
}
