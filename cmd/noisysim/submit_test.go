package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"noisyradio/internal/serve"
)

// TestSubmitSchedule: -submit runs a -schedule job against a sweep
// service and renders the streamed result in the local output format; a
// repeat submission is served from the cache with identical statistics.
func TestSubmitSchedule(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Config{}))
	defer ts.Close()

	args := []string{"-schedule", "decay", "-submit", ts.URL, "-n", "24", "-p", "0.3", "-fault", "receiver", "-trials", "40", "-seed", "3"}
	out, err := capture(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"schedule: decay", "submit: " + ts.URL + " job pk1-", "cache: miss", "success: ", "rounds: mean "} {
		if !strings.Contains(out, want) {
			t.Fatalf("submit output missing %q:\n%s", want, out)
		}
	}

	again, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(again, "cache: hit") {
		t.Fatalf("second submission not a cache hit:\n%s", again)
	}
	// Everything but the cache disposition and the wall clock is replayed
	// bytes: the statistics lines must match the first run exactly.
	statLines := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "success:") || strings.HasPrefix(line, "rounds:") || strings.HasPrefix(line, "snapshot ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if statLines(out) != statLines(again) {
		t.Fatalf("cached replay changed the statistics:\n%s\nvs\n%s", statLines(out), statLines(again))
	}

	// The local execution path agrees with the service on the summary
	// lines (same fold, same formatting).
	local, err := capture(t, "-schedule", "decay", "-n", "24", "-p", "0.3", "-fault", "receiver", "-trials", "40", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	pick := func(s, prefix string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, prefix) {
				return line
			}
		}
		return ""
	}
	for _, prefix := range []string{"success:", "rounds:"} {
		if pick(out, prefix) != pick(local, prefix) {
			t.Fatalf("service and local disagree on %q:\n%s\nvs\n%s", prefix, pick(out, prefix), pick(local, prefix))
		}
	}
}

// TestSubmitMultiMessageThroughput: k rides into the spec for
// multi-message schedules and the throughput line renders.
func TestSubmitMultiMessageThroughput(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Config{}))
	defer ts.Close()
	out, err := capture(t, "-schedule", "star-coding", "-submit", ts.URL, "-n", "16", "-k", "4", "-p", "0.45", "-fault", "receiver", "-trials", "20", "-seed", "2")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "throughput: ") || !strings.Contains(out, "(k=4)") {
		t.Fatalf("missing throughput line:\n%s", out)
	}
}

// TestSubmitErrorPaths: the documented failure modes are usage errors —
// unknown schedules and malformed workloads fail client-side before any
// network traffic, an unreachable server fails with a transport error.
func TestSubmitErrorPaths(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Config{}))
	serverDownURL := ts.URL
	ts.Close() // nothing listens here any more

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown schedule", []string{"-schedule", "bogus", "-submit", "http://127.0.0.1:1"}, "unknown schedule"},
		{"bad workload", []string{"-schedule", "decay", "-submit", "http://127.0.0.1:1", "-topology", "grid", "-n", "12"}, "grid"},
		{"server down", []string{"-schedule", "decay", "-submit", serverDownURL, "-n", "24", "-trials", "5"}, "submitting job"},
		{"submit without schedule", []string{"-submit", "http://127.0.0.1:1"}, "-submit requires -schedule"},
	}
	for _, tc := range cases {
		_, err := capture(t, tc.args...)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

// TestSubmitRejectsBadNoiseSpec: -submit runs the local run's radio
// config check before it posts, so an invalid noise spec never reaches
// the service.
func TestSubmitRejectsBadNoiseSpec(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("request reached the service: %s %s", r.Method, r.URL.Path)
		http.Error(w, "unexpected request", http.StatusInternalServerError)
	}))
	defer ts.Close()
	for _, noise := range badNoiseSpecs {
		args := append([]string{"-schedule", "decay", "-submit", ts.URL, "-topology", "grid", "-n", "64", "-trials", "2", "-fault", "receiver"}, noise...)
		if _, err := capture(t, args...); err == nil || !strings.HasPrefix(err.Error(), "radio: ") {
			t.Errorf("%v: error %v, want the radio config's validation error", noise, err)
		}
	}
}
