// Package serve implements the sweep service: a persistent HTTP server
// that accepts sweep jobs in the schedule registry's vocabulary, runs
// each as one sim.Sweep schedule row, streams prefix snapshots of that
// row as its in-order fold passes fixed trial counts, and caches
// finished results under their canonical plan key
// (benchreport.JobSpec.PlanKey).
//
// The determinism stack the service stands on, bottom to top:
//
//   - trial i of a (seed, trials) job always draws rng.NewFrom(seed, i),
//     whatever engine or worker count executes it;
//   - the row folds its trials into its accumulator in trial order, at
//     every worker count and chunk size, so the result line is the
//     accumulator noisysim -schedule folds for the same spec;
//   - the snapshot marks are a pure function of the trial count, never
//     of machine shape, and the snapshot at mark m is the fold of the
//     first m trials (sim.Row.Snapshots) — so the full NDJSON stream is
//     byte-stable across executions.
//
// Hence a finished body can be cached and replayed verbatim: a cache hit
// IS the prior result, not a re-computation, and the X-Cache header is
// the only part of the response that differs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/sim"
)

// Config tunes a Server. Every field is an execution knob: none of them
// changes a byte of any job's body, only how fast it arrives.
type Config struct {
	// CacheSize bounds the result cache in entries (finished bodies).
	// 0 means 1024.
	CacheSize int
	// Workers sizes each job's sim.Sweep pool (0 = GOMAXPROCS).
	Workers int
}

// Server is the sweep service. It implements http.Handler; lifecycle
// (listening, TLS, draining) belongs to the owning http.Server.
type Server struct {
	cfg Config

	mux *http.ServeMux

	mu      sync.Mutex
	cache   *bodyCache
	flights map[string]*flight

	metrics struct {
		jobs      atomic.Int64 // accepted submissions: hits, misses and coalesced
		hits      atomic.Int64 // served verbatim from the result cache
		misses    atomic.Int64 // executed
		coalesced atomic.Int64 // answered from an identical in-flight job that built
		errored   atomic.Int64 // finished with an error line (not cached)
		inflight  atomic.Int64 // jobs currently executing
		trials    atomic.Int64 // trials folded by finished jobs
	}
}

// flight is one in-flight execution, used to coalesce concurrent
// identical submissions: followers wait for done, then replay body. The
// leader sets the other fields before done closes.
type flight struct {
	done     chan struct{}
	body     []byte // full stream bytes
	ok       bool   // finished cleanly (body also cached)
	buildErr error  // the workload failed to build; nothing executed
}

// NewServer builds a sweep service with the given execution knobs.
func NewServer(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newBodyCache(cfg.CacheSize),
		flights: make(map[string]*flight),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// snapshotMarks returns the folded trial counts at which a job of the
// given size streams a snapshot line: k·trials/S for k = 1…S−1, with
// S = min(8, ⌈trials/32⌉), so a job of at most 32 trials streams none
// and a larger one a snapshot for about every eighth of its trials.
func snapshotMarks(trials int) []int {
	parts := min(8, (trials+31)/32)
	var marks []int
	for k := 1; k < parts; k++ {
		marks = append(marks, k*trials/parts)
	}
	return marks
}

// job is a validated submission. checkJob fills everything the spec
// alone determines, plan key included, so malformed jobs fail as HTTP
// 400, never mid-stream. build adds the workload (topology and schedule
// parameters); only a flight leader builds it.
type job struct {
	spec  benchreport.JobSpec
	key   string
	sched *broadcast.Schedule
	cfg   radio.Config

	top    graph.Topology
	params broadcast.ScheduleParams
}

// checkJob validates a spec against the registries and computes its plan
// key, building nothing. The error text is the HTTP 400 body.
func (s *Server) checkJob(spec benchreport.JobSpec) (*job, error) {
	sched, err := broadcast.LookupSchedule(spec.Schedule)
	if err != nil {
		return nil, fmt.Errorf("%w (known: %v)", err, broadcast.ScheduleNames())
	}
	fault, err := radio.ParseFaultModel(spec.Fault)
	if err != nil {
		return nil, err
	}
	draw, err := radio.ParseDrawContract(spec.Draw)
	if err != nil {
		return nil, err
	}
	if spec.Trials < 1 {
		return nil, fmt.Errorf("trials must be >= 1, got %d", spec.Trials)
	}
	if spec.P < 0 || spec.P >= 1 {
		return nil, fmt.Errorf("p must be in [0, 1), got %v", spec.P)
	}
	cfg := radio.Config{
		Fault: fault,
		Draw:  draw,
		Burst: radio.BurstParams{Len: spec.BurstLen, BadP: spec.BurstBadP},
		Jam:   radio.JamParams{Q: spec.JamQ, Radius: spec.JamRadius, Ball: spec.JamBall},
	}
	if fault != radio.Faultless {
		cfg.P = spec.P
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &job{
		spec:  spec,
		key:   spec.PlanKey(),
		sched: sched,
		cfg:   cfg,
	}, nil
}

// build builds the job's workload. Two specs with one plan key agree on
// every field ScheduleWorkload reads (schedule, topology, n, k, seed), so
// a cached key has already built and an in-flight key is being built by
// its leader. The error text is the HTTP 400 body.
func (jb *job) build() error {
	k := jb.spec.K
	if k == 0 {
		k = 1
	}
	top, params, err := experiments.ScheduleWorkload(jb.sched, jb.spec.Topology, jb.spec.N, k, jb.spec.Seed)
	if err != nil {
		return err
	}
	jb.top, jb.params = top, params
	return nil
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeSpec reads one job spec, rejecting unknown fields: a typo'd key
// must not silently default and then cache under the wrong plan.
func decodeSpec(r io.Reader) (benchreport.JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec benchreport.JobSpec
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decoding job spec: %w", err)
	}
	return spec, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	jb, err := s.checkJob(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	// Admission, before anything is built: cache hit, coalesce onto an
	// identical in-flight job, or become the leader, which alone builds
	// the workload and executes it.
	s.mu.Lock()
	if body, ok := s.cache.get(jb.key); ok {
		s.mu.Unlock()
		s.metrics.jobs.Add(1)
		s.metrics.hits.Add(1)
		s.writeBody(w, jb.key, "hit", body)
		return
	}
	if f, ok := s.flights[jb.key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-r.Context().Done():
			httpError(w, http.StatusServiceUnavailable, r.Context().Err())
			return
		}
		if f.buildErr != nil {
			// The leader's workload did not build, and this spec names
			// the same workload.
			httpError(w, http.StatusBadRequest, f.buildErr)
			return
		}
		s.metrics.jobs.Add(1)
		s.metrics.coalesced.Add(1)
		if !f.ok {
			httpError(w, http.StatusServiceUnavailable, errors.New("coalesced job aborted; retry"))
			return
		}
		s.writeBody(w, jb.key, "coalesced", f.body)
		return
	}
	f := &flight{done: make(chan struct{})}
	s.flights[jb.key] = f
	s.mu.Unlock()

	if err := jb.build(); err != nil {
		f.buildErr = err
		s.land(jb.key, f)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.jobs.Add(1)
	s.metrics.misses.Add(1)

	body, last, runErr := s.execute(r.Context(), jb, w)
	// Land before the client sees the terminal line: a client that
	// resubmits the moment it reads it must find the body cached, not
	// the key still in flight.
	f.body, f.ok = append(body, last...), runErr == nil
	s.land(jb.key, f)
	if runErr == nil {
		s.metrics.trials.Add(int64(jb.spec.Trials))
	} else {
		s.metrics.errored.Add(1)
	}
	writeLine(w, last)
}

// land retires a leader's flight once its outcome fields are set: a clean
// body enters the cache, the key leaves the flights table, and the
// followers are released to replay the body or answer the build error.
func (s *Server) land(key string, f *flight) {
	s.mu.Lock()
	if f.ok {
		s.cache.put(key, f.body)
	}
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
}

// writeBody replays a finished stream verbatim. The cache disposition
// travels in headers — the body bytes are identical on hit and miss.
func (s *Server) writeBody(w http.ResponseWriter, key, disposition string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Plan-Key", key)
	h.Set("X-Cache", disposition)
	w.Write(body)
}

// execute runs one job as the flight leader: one schedule row, whose
// in-order fold streams a snapshot line to w at each of the job's
// snapshot marks. It returns the streamed bytes and the encoded terminal
// result or error line, unwritten: the body the cache (and any coalesced
// followers) will replay is the two joined, and the caller lands the
// flight before writing the terminal line. Client disconnection cancels
// ctx, which cancels the sweep; the job then finishes with an error line
// and is not cached.
func (s *Server) execute(ctx context.Context, jb *job, w http.ResponseWriter) (body, last []byte, err error) {
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Plan-Key", jb.key)
	h.Set("X-Cache", "miss")

	// The job is the sweep's only row, so no sibling row hides its tail:
	// its trials are handed out one at a time.
	sw := sim.NewSweep(sim.SweepConfig{Workers: s.cfg.Workers, ChunkSize: 1})
	row := sw.AddSchedule(jb.sched, jb.top, jb.cfg, jb.params, jb.spec.Trials, jb.spec.Seed, broadcast.Outcome.RoundsOrNaN)
	snaps := row.Snapshots(snapshotMarks(jb.spec.Trials))
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	errc := make(chan error, 1)
	go func() { errc <- sw.RunContext(ctx) }()

	// A snapshot comes only from a prefix without a failed trial, so every
	// trial it covers was folded, as a value or as a drop.
	for acc := range snaps {
		b := encodeLine(Line{Type: "snapshot", Trials: acc.N() + acc.Dropped(), Stats: newStats(&acc)})
		body = append(body, b...)
		writeLine(w, b)
	}
	if err := <-errc; err != nil {
		return body, encodeLine(Line{Type: "error", Key: jb.key, Error: err.Error()}), err
	}
	return body, encodeLine(Line{
		Type:     "result",
		Key:      jb.key,
		Schedule: jb.spec.Schedule,
		Trials:   jb.spec.Trials,
		Stats:    newStats(row.Acc()),
	}), nil
}

// encodeLine renders one NDJSON stream line.
func encodeLine(line Line) []byte {
	b, err := json.Marshal(line)
	if err != nil {
		panic(fmt.Sprintf("serve: marshaling stream line: %v", err))
	}
	return append(b, '\n')
}

// writeLine sends one stream line to the client now.
func writeLine(w http.ResponseWriter, b []byte) {
	w.Write(b)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleMetrics renders the counters as plain "name value" lines.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := s.cache.len()
	s.mu.Unlock()
	m := map[string]int64{
		"noisyserved_jobs_total":         s.metrics.jobs.Load(),
		"noisyserved_cache_hits_total":   s.metrics.hits.Load(),
		"noisyserved_cache_misses_total": s.metrics.misses.Load(),
		"noisyserved_coalesced_total":    s.metrics.coalesced.Load(),
		"noisyserved_jobs_errored_total": s.metrics.errored.Load(),
		"noisyserved_jobs_inflight":      s.metrics.inflight.Load(),
		"noisyserved_trials_total":       s.metrics.trials.Load(),
		"noisyserved_cache_entries":      int64(entries),
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, m[name])
	}
}
