package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/sim"
)

func testSpec() benchreport.JobSpec {
	return benchreport.JobSpec{
		Schedule: "decay",
		Topology: "path",
		N:        24,
		Fault:    "receiver",
		P:        0.3,
		Seed:     3,
		Trials:   40,
	}
}

// post submits spec and reads the whole response; unlike postJob it is
// safe to call from any goroutine.
func post(url string, spec benchreport.JobSpec) (*http.Response, []byte, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func postJob(t *testing.T, ts *httptest.Server, spec benchreport.JobSpec) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := post(ts.URL, spec)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func metric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// localRow folds a spec's first trials trials as noisysim -schedule does:
// one AddSchedule row on the spec's workload, single goroutine.
func localRow(t *testing.T, spec benchreport.JobSpec, trials int) *sim.Row {
	t.Helper()
	jb := mustCheck(t, spec)
	k := max(spec.K, 1)
	top, params, err := experiments.ScheduleWorkload(jb.sched, spec.Topology, spec.N, k, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sw := sim.NewSweep(sim.SweepConfig{Workers: 1})
	row := sw.AddSchedule(jb.sched, top, jb.cfg, params, trials, spec.Seed, broadcast.Outcome.RoundsOrNaN)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	return row
}

// TestJobMatchesLocalSweep: the service's result line carries, field for
// field and bit for bit, the statistics of the local row noisysim
// -schedule folds for the same spec, and each snapshot line those of a
// local row over the snapshot's first trials trials. The snapshots fall
// at k·trials/S for S = min(8, ⌈trials/32⌉).
func TestJobMatchesLocalSweep(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	grid, cube, star := testSpec(), testSpec(), testSpec()
	grid.Topology, grid.N, grid.Trials = "grid", 256, 256
	cube.Topology, cube.N, cube.Trials = "hypercube", 256, 100
	star.Schedule, star.N, star.K, star.P, star.Trials = "star-coding", 16, 4, 0.45, 70
	for _, tc := range []struct {
		spec  benchreport.JobSpec
		marks []int
	}{
		{testSpec(), []int{20}},
		{benchreport.JobSpec{Schedule: "decay", Topology: "complete", N: 4096, Fault: "sender", P: 0.1, Seed: 1, Trials: 512},
			[]int{64, 128, 192, 256, 320, 384, 448}},
		{grid, []int{32, 64, 96, 128, 160, 192, 224}},
		{cube, []int{25, 50, 75}},
		{star, []int{23, 46}},
	} {
		spec := tc.spec
		var snapshots []Line
		res, err := Submit(context.Background(), ts.URL, spec, func(l Line) { snapshots = append(snapshots, l) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "miss" {
			t.Fatalf("%s: first submission X-Cache = %q, want miss", spec.Canonical(), res.Cache)
		}
		if res.Stats == nil || res.Trials != spec.Trials {
			t.Fatalf("%s: result line %+v", spec.Canonical(), res.Line)
		}
		if want := newStats(localRow(t, spec, spec.Trials).Acc()); !reflect.DeepEqual(res.Stats, want) {
			t.Fatalf("%s: result stats\n%s\nwant the local row's\n%s", spec.Canonical(), statsJSON(res.Stats), statsJSON(want))
		}
		if len(snapshots) != len(tc.marks) {
			t.Fatalf("%s: %d snapshot lines, want %d", spec.Canonical(), len(snapshots), len(tc.marks))
		}
		for i, snap := range snapshots {
			if snap.Trials != tc.marks[i] {
				t.Fatalf("%s: snapshot %d covers %d trials, want %d", spec.Canonical(), i, snap.Trials, tc.marks[i])
			}
			if want := newStats(localRow(t, spec, snap.Trials).Acc()); !reflect.DeepEqual(snap.Stats, want) {
				t.Fatalf("%s: snapshot of %d trials\n%s\nwant the local row's\n%s", spec.Canonical(), snap.Trials, statsJSON(snap.Stats), statsJSON(want))
			}
		}
	}
}

func statsJSON(s *Stats) []byte {
	b, _ := json.Marshal(s)
	return b
}

func mustCheck(t *testing.T, spec benchreport.JobSpec) *job {
	t.Helper()
	jb, err := NewServer(Config{}).checkJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	return jb
}

// TestCacheHitIsByteExact: the second submission replays the first body
// byte for byte, marked only by the X-Cache header, and the counters move.
func TestCacheHitIsByteExact(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()

	resp1, body1 := postJob(t, ts, testSpec())
	resp2, body2 := postJob(t, ts, testSpec())
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q", got)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit body differs from original:\n%s\n%s", body1, body2)
	}
	if resp1.Header.Get("X-Plan-Key") != resp2.Header.Get("X-Plan-Key") {
		t.Fatal("plan key differs across submissions")
	}
	if hits := metric(t, ts, "noisyserved_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := metric(t, ts, "noisyserved_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
	if inflight := metric(t, ts, "noisyserved_jobs_inflight"); inflight != 0 {
		t.Fatalf("jobs inflight after completion = %d", inflight)
	}

	// A different seed is a different plan key: misses again.
	other := testSpec()
	other.Seed = 4
	resp3, body3 := postJob(t, ts, other)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("different-seed X-Cache = %q", got)
	}
	if bytes.Equal(body1, body3) {
		t.Fatal("different seed produced the identical body")
	}
}

// TestCacheHitBuildsNoWorkload: a hit is answered from the plan key
// alone. One build of the 2¹⁶-node hypercube allocates several MiB (its
// CSR alone is 4 MiB), so a hit that built its workload first would show
// in the heap's allocation total.
func TestCacheHitBuildsNoWorkload(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	spec := benchreport.JobSpec{
		Schedule: "decay",
		Topology: "hypercube",
		N:        1 << 16,
		Fault:    "receiver",
		P:        0.3,
		Seed:     1,
		Trials:   2,
	}
	if resp, body := postJob(t, ts, spec); resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first submission: status %d, X-Cache %q, body %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, _ := postJob(t, ts, spec)
	runtime.ReadMemStats(&after)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second submission X-Cache = %q, want hit", got)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("cache hit allocated %d bytes, want < 1 MiB (did it build the workload?)", grew)
	}
}

// TestFinishedJobsRetainNoHeap: a finished job leaves nothing live but
// its cached body. Every trial builds its own network and synthesised
// topology and drops both when it returns, so after the server closes and
// a GC the live heap is back within 1 MiB of where it started. The
// 2¹⁵-node hypercube's CSR alone is about 2 MiB, and each 50,000-leaf star
// with a network over it about 0.8 MiB.
func TestFinishedJobsRetainNoHeap(t *testing.T) {
	before := liveHeap()
	runDistinctJobs(t)
	if after := liveHeap(); after > before+1<<20 {
		t.Fatalf("live heap %d bytes after 16 finished jobs and a closed server, %d before: %d bytes retained, want < 1 MiB",
			after, before, after-before)
	}
}

// runDistinctJobs runs 8 one-trial star-routing jobs at distinct n and 8
// one-trial decay jobs on hypercubes of 2⁸ … 2¹⁵ nodes on a fresh server,
// then closes it.
func runDistinctJobs(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	for i := 0; i < 8; i++ {
		for _, spec := range []benchreport.JobSpec{
			{Schedule: "star-routing", N: 50_000 + i, Fault: "receiver", P: 0.3, Seed: 1, Trials: 1},
			{Schedule: "decay", Topology: "hypercube", N: 1 << (8 + i), Fault: "receiver", P: 0.3, Seed: 1, Trials: 1},
		} {
			resp, body := postJob(t, ts, spec)
			if l := lastLine(t, body); resp.StatusCode != http.StatusOK || l.Type != "result" {
				t.Fatalf("%s n=%d: status %d, terminal line %+v", spec.Schedule, spec.N, resp.StatusCode, l)
			}
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestBodyDeterministicAcrossServers: a fresh process (fresh server)
// computes the byte-identical body — the cache's correctness claim.
func TestBodyDeterministicAcrossServers(t *testing.T) {
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(NewServer(Config{Workers: 1 + i*3}))
		_, body := postJob(t, ts, testSpec())
		ts.Close()
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("body differs across server configs:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestCoalescing: N concurrent identical submissions execute once; the
// followers wait and replay the identical bytes.
func TestCoalescing(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	spec := testSpec()
	spec.Trials = 200 // long enough that the followers arrive mid-flight

	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = postJob(t, ts, spec)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d body differs", i)
		}
	}
	if misses := metric(t, ts, "noisyserved_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one execution)", misses)
	}
	total := metric(t, ts, "noisyserved_cache_hits_total") + metric(t, ts, "noisyserved_coalesced_total")
	if total != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d", total, clients-1)
	}
}

// badSpecs mutates testSpec into specs the service must reject as HTTP
// 400, by check or by build.
var badSpecs = map[string]func(*benchreport.JobSpec){
	"unknown schedule": func(s *benchreport.JobSpec) { s.Schedule = "bogus" },
	"unknown fault":    func(s *benchreport.JobSpec) { s.Fault = "martian" },
	"unknown draw":     func(s *benchreport.JobSpec) { s.Draw = "v99" },
	"unknown topology": func(s *benchreport.JobSpec) { s.Topology = "moebius" },
	"zero trials":      func(s *benchreport.JobSpec) { s.Trials = 0 },
	"p out of range":   func(s *benchreport.JobSpec) { s.P = 1.5 },
	"tiny n":           func(s *benchreport.JobSpec) { s.N = 1 },
	"hypercube 2^21":   func(s *benchreport.JobSpec) { s.Topology = "hypercube"; s.N = 1 << 21 },
	// Noise parameters the contract rejects.
	"v3 burstbadp 2":  func(s *benchreport.JobSpec) { s.Draw = "v3"; s.BurstBadP = 2 },
	"v3 p above badp": func(s *benchreport.JobSpec) { s.Draw = "v3"; s.P = 0.6 },
	"v4 jamq 3":       func(s *benchreport.JobSpec) { s.Draw = "v4"; s.JamQ = 3 },
	"v4 jamradius -2": func(s *benchreport.JobSpec) { s.Draw = "v4"; s.JamRadius = -2 },
}

// unknownFieldSpec is a spec with a typo'd key, which decoding rejects.
const unknownFieldSpec = `{"schedule":"decay","topology":"path","n":24,"fault":"receiver","p":0.3,"seed":1,"trials":5,"engin":"dense"}`

// TestRejectsBadSpecs: malformed submissions are HTTP 400 with a JSON
// error, before any execution, whether submitted alone or by concurrent
// clients, and none counts as a job.
func TestRejectsBadSpecs(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	rejected := func(resp *http.Response, body []byte) error {
		if resp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("status %d, want 400 (body %s)", resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			return fmt.Errorf("400 body is not a JSON error: %s", body)
		}
		return nil
	}
	const clients = 4
	for name, mut := range badSpecs {
		spec := testSpec()
		mut(&spec)
		if err := rejected(postJob(t, ts, spec)); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// Concurrent identical submissions: whoever coalesces onto a
		// leader whose workload fails to build is rejected with it.
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, body, err := post(ts.URL, spec)
				if err == nil {
					err = rejected(resp, body)
				}
				if err != nil {
					t.Errorf("%s, client %d: %v", name, c, err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	// Unknown fields are rejected too (typo'd keys must not silently
	// default and then cache under the wrong plan).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(unknownFieldSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if jobs := metric(t, ts, "noisyserved_jobs_total"); jobs != 0 {
		t.Fatalf("rejected specs counted as jobs: %d", jobs)
	}
}

// TestCompleteJobsRun: every topology-taking schedule that reads more of
// the graph than its rounds — the GBST of fastbc and robust-fastbc, the
// BFS layers of pipelined-batch-routing — runs as a job on the complete
// graph, which stores no adjacency at any n, and ends in a successful
// result line.
func TestCompleteJobsRun(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	for _, spec := range []benchreport.JobSpec{
		{Schedule: "fastbc", N: 8192},
		{Schedule: "robust-fastbc", N: 8192},
		{Schedule: "pipelined-batch-routing", N: 4096, K: 2},
	} {
		spec.Topology, spec.Fault, spec.P, spec.Seed, spec.Trials = "complete", "receiver", 0.1, 1, 2
		resp, body := postJob(t, ts, spec)
		l := lastLine(t, body)
		if resp.StatusCode != http.StatusOK || l.Type != "result" {
			t.Fatalf("%s on complete(n=%d): status %d, terminal line %+v", spec.Schedule, spec.N, resp.StatusCode, l)
		}
		if l.Stats == nil || l.Stats.N != spec.Trials || l.Stats.Dropped != 0 {
			t.Fatalf("%s on complete(n=%d): stats %+v, want %d successful trials", spec.Schedule, spec.N, l.Stats, spec.Trials)
		}
	}
}

// TestFollowerOfFailedBuild: a submission coalesced onto a leader whose
// workload failed to build answers the leader's 400 and counts as no job.
func TestFollowerOfFailedBuild(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	spec := testSpec()
	spec.N = 1
	jb := mustCheck(t, spec)
	buildErr := jb.build()
	if buildErr == nil {
		t.Fatal("n = 1 built a workload")
	}
	// Play a leader whose build has already failed and whose flight is
	// still registered, so the submission takes the follower's path
	// whatever the timing.
	f := &flight{done: make(chan struct{}), buildErr: buildErr}
	close(f.done)
	srv.mu.Lock()
	srv.flights[jb.key] = f
	srv.mu.Unlock()

	resp, body := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error != buildErr.Error() {
		t.Fatalf("body %s, want the leader's build error %q", body, buildErr)
	}
	for _, name := range []string{"noisyserved_jobs_total", "noisyserved_coalesced_total"} {
		if v := metric(t, ts, name); v != 0 {
			t.Fatalf("%s = %d, want 0", name, v)
		}
	}
}

// cancelledJobs serves s with every request's context cancelled before
// the handler runs, so each admitted job's sweep fails during execution:
// every chunk folds empty with the cancellation as its error.
func cancelledJobs(s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		cancel()
		s.ServeHTTP(w, r.WithContext(ctx))
	})
}

// TestRuntimeErrorNotCached: a job that fails during execution ends in an
// NDJSON error line and is never cached — the next submission
// re-executes.
func TestRuntimeErrorNotCached(t *testing.T) {
	ts := httptest.NewServer(cancelledJobs(NewServer(Config{})))
	defer ts.Close()
	spec := testSpec()

	for round := 0; round < 2; round++ {
		resp, body := postJob(t, ts, spec)
		if resp.StatusCode != 200 {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		if resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("round %d: X-Cache = %q, want miss (errors are not cached)", round, resp.Header.Get("X-Cache"))
		}
		last := lastLine(t, body)
		if last.Type != "error" || last.Error == "" {
			t.Fatalf("round %d: terminal line %+v, want an error line", round, last)
		}
	}
	if errored := metric(t, ts, "noisyserved_jobs_errored_total"); errored != 2 {
		t.Fatalf("errored = %d, want 2", errored)
	}
	if _, err := Submit(context.Background(), ts.URL, spec, nil); err == nil || !strings.Contains(err.Error(), "job failed") {
		t.Fatalf("client Submit error = %v, want job-failed", err)
	}
}

// cancelWriter cancels its job's context as the first snapshot line is
// written, so the job's remaining trials fail mid-run.
type cancelWriter struct {
	http.ResponseWriter
	cancel func()
}

func (w *cancelWriter) Write(b []byte) (int, error) {
	var l Line
	if json.Unmarshal(b, &l) == nil && l.Type == "snapshot" {
		w.cancel()
	}
	return w.ResponseWriter.Write(b)
}

// TestFailedJobStopsSnapshots: a job whose trials fail mid-run streams a
// snapshot only for prefixes below its first failed trial and ends with
// the row's lowest-trial error, in sim's text; nothing is cached.
func TestFailedJobStopsSnapshots(t *testing.T) {
	s := NewServer(Config{})
	spec := testSpec()
	spec.N, spec.Trials = 64, 20000 // far more trials than run before the cancellation lands
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(payload)).WithContext(ctx)
	s.ServeHTTP(&cancelWriter{ResponseWriter: rec, cancel: cancel}, req)

	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	last := lastLine(t, rec.Body.Bytes())
	var failed int
	if _, err := fmt.Sscanf(last.Error, "sim: trial %d: context canceled", &failed); err != nil || last.Type != "error" {
		t.Fatalf("terminal line %+v, want sim's context-cancelled trial error", last)
	}
	if len(lines) < 2 {
		t.Fatalf("no snapshot before the error:\n%s", rec.Body)
	}
	for _, raw := range lines[:len(lines)-1] {
		var l Line
		if err := json.Unmarshal(raw, &l); err != nil || l.Type != "snapshot" {
			t.Fatalf("line %s before the terminal line is not a snapshot", raw)
		}
		if l.Trials > failed || l.Stats.N+l.Stats.Dropped != l.Trials {
			t.Fatalf("snapshot %s streamed past the failed trial %d", raw, failed)
		}
	}
	s.mu.Lock()
	_, cached := s.cache.get(spec.PlanKey())
	s.mu.Unlock()
	if cached {
		t.Fatal("a failed job was cached")
	}
}

// landCheckWriter observes the server's state at the moment the leader
// writes its terminal line: whether the key had left the flights table,
// and whether the cache held a body ending in that line.
type landCheckWriter struct {
	http.ResponseWriter
	s        *Server
	key      string
	terminal string // "result" or "error" once written
	inFlight bool
	cached   bool
}

func (w *landCheckWriter) Write(b []byte) (int, error) {
	var l Line
	if json.Unmarshal(b, &l) == nil && (l.Type == "result" || l.Type == "error") {
		w.terminal = l.Type
		w.s.mu.Lock()
		body, ok := w.s.cache.get(w.key)
		_, w.inFlight = w.s.flights[w.key]
		w.s.mu.Unlock()
		w.cached = ok && bytes.HasSuffix(body, b)
	}
	return w.ResponseWriter.Write(b)
}

// TestLeaderLandsBeforeTerminalLine: by the time the leader's own client
// reads the result line, the body is cached and the flight is gone, so
// an immediate resubmission is a hit, never a coalesce onto a finished
// flight. An error line likewise follows the flight's removal, with
// nothing cached.
func TestLeaderLandsBeforeTerminalLine(t *testing.T) {
	spec := testSpec()
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		serve func(*Server) http.Handler
		want  string
	}{
		{func(s *Server) http.Handler { return s }, "result"},
		{cancelledJobs, "error"},
	} {
		s := NewServer(Config{})
		rec := httptest.NewRecorder()
		w := &landCheckWriter{ResponseWriter: rec, s: s, key: spec.PlanKey()}
		tc.serve(s).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(payload)))
		if w.terminal != tc.want {
			t.Fatalf("terminal line %q, want %q:\n%s", w.terminal, tc.want, rec.Body)
		}
		if w.inFlight {
			t.Errorf("%s line written while the key was still in flight", tc.want)
		}
		if w.cached != (tc.want == "result") {
			t.Errorf("%s line written with cached = %v", tc.want, w.cached)
		}
	}
}

func lastLine(t *testing.T, body []byte) Line {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var l Line
	if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
		t.Fatalf("terminal line %s: %v", lines[len(lines)-1], err)
	}
	return l
}

// TestClientCancellation: a caller abandoning the job cancels the sweep;
// nothing is cached, and a later submission runs fresh.
func TestClientCancellation(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	spec := testSpec()
	spec.N = 64
	spec.Trials = 20000 // long enough that a 20ms deadline lands mid-run

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := Submit(ctx, ts.URL, spec, nil); err == nil {
		t.Skip("job finished inside the cancellation window; machine too fast for this race")
	}
	// Wait for the server to finish aborting the flight (the error is
	// recorded when the leader's sweep drains), then resubmit: the
	// abandoned job must not have poisoned the cache.
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, ts, "noisyserved_jobs_errored_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("aborted job never recorded as errored")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := Submit(context.Background(), ts.URL, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "miss" {
		t.Fatalf("post-cancel X-Cache = %q, want miss", res.Cache)
	}
	if res.Stats.N+res.Stats.Dropped != spec.Trials {
		t.Fatalf("post-cancel result covers %d trials, want %d", res.Stats.N+res.Stats.Dropped, spec.Trials)
	}
}

// TestLRUEviction: the cache honours its capacity, evicting the least
// recently used body.
func TestLRUEviction(t *testing.T) {
	c := newBodyCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}

	// End to end: a size-1 server cache forgets the older job.
	ts := httptest.NewServer(NewServer(Config{CacheSize: 1}))
	defer ts.Close()
	a, b := testSpec(), testSpec()
	b.Seed = 9
	postJob(t, ts, a)
	postJob(t, ts, b)
	resp, _ := postJob(t, ts, a)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("evicted job X-Cache = %q, want miss", got)
	}
}

// TestSnapshotMarks pins where snapshot lines fall: k·trials/S for
// k = 1…S−1, S = min(8, ⌈trials/32⌉).
func TestSnapshotMarks(t *testing.T) {
	for _, tc := range []struct {
		trials int
		want   []int
	}{
		{1, []int{}},
		{32, []int{}},
		{33, []int{16}},
		{40, []int{20}},
		{64, []int{32}},
		{100, []int{25, 50, 75}},
		{256, []int{32, 64, 96, 128, 160, 192, 224}},
		{100000, []int{12500, 25000, 37500, 50000, 62500, 75000, 87500}},
	} {
		if got := snapshotMarks(tc.trials); !slices.Equal(got, tc.want) {
			t.Errorf("snapshotMarks(%d) = %v, want %v", tc.trials, got, tc.want)
		}
	}
}

// TestHealthz: liveness answers.
func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestCacheMicrobenchRows: the cache microbench reports its cold and hit
// rows by name, and replaying a cached body beats executing the sweep.
func TestCacheMicrobenchRows(t *testing.T) {
	rows := CacheMicrobench()
	if len(rows) != 2 || rows[0].Name != "servecache/cold/decay-complete-4096" || rows[1].Name != "servecache/hit/decay-complete-4096" {
		t.Fatalf("rows %+v, want the cold row then the hit row", rows)
	}
	if cold, hit := rows[0].NsPerRound, rows[1].NsPerRound; !(hit > 0 && hit < cold) {
		t.Fatalf("hit %v ns, cold %v ns: want 0 < hit < cold", hit, cold)
	}
}

// TestEndsInResult: the cache microbench accepts a body only when its
// last line is a result line.
func TestEndsInResult(t *testing.T) {
	for _, c := range []struct {
		body string
		want bool
	}{
		{`{"type":"snapshot","trials":64}` + "\n" + `{"type":"result","key":"k"}` + "\n", true},
		{`{"type":"result","key":"k"}`, true},
		{`{"type":"result","key":"k"}` + "\n" + `{"type":"error","error":"x"}` + "\n", false},
		{`{"error":"bad spec"}` + "\n", false},
		{"", false},
	} {
		if got := endsInResult([]byte(c.body)); got != c.want {
			t.Errorf("endsInResult(%q) = %v, want %v", c.body, got, c.want)
		}
	}
}
