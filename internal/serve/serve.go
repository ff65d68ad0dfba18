// Package serve implements the sweep service: a persistent HTTP server
// that accepts sweep jobs in the schedule registry's vocabulary, shards
// them across the sim.Sweep scheduler, streams partial statistics as
// shards complete, and caches finished results under their canonical
// plan key (benchreport.JobSpec.PlanKey).
//
// The determinism stack the service stands on, bottom to top:
//
//   - trial i of a (seed, trials) job always draws rng.NewFrom(seed, i),
//     whatever engine or worker count executes it;
//   - a shard row for [start, end) replays exactly the global trials
//     start..end-1 (sim.Sweep.AddScheduleShard), and merging shard
//     accumulators in shard order reproduces the unsharded fold
//     (stats.Accumulator.Merge);
//   - the shard plan is a pure function of the job spec (trial count),
//     never of machine shape;
//   - snapshot k is the merge of shards 0..k, emitted when those shards
//     have all completed — a prefix property, so the full NDJSON stream
//     is byte-stable across executions.
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
	"math"
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
	"noisyradio/internal/stats"
)

// Config tunes a Server. Every field is an execution knob: none of them
// changes the statistics of any job, only how fast they arrive — except
// Shards, which changes where snapshot lines fall in the stream (bodies
// are cached per process, so a fixed Config keeps them byte-stable).
type Config struct {
	// CacheSize bounds the result cache in entries (finished bodies).
	// 0 means 1024.
	CacheSize int
	// Shards fixes the per-job shard count. 0 derives it from the trial
	// count: min(8, ceil(trials/32)) — small jobs stay unsharded, large
	// jobs get snapshot granularity.
	Shards int
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
		inflight  atomic.Int64 // shards currently executing
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

// ShardPlan returns the deterministic shard count for a trial count
// under this server's config — exported so tests and the microbench can
// predict where snapshot lines fall.
func (s *Server) ShardPlan(trials int) int {
	if s.cfg.Shards > 0 {
		return s.cfg.Shards
	}
	shards := (trials + 31) / 32
	if shards > 8 {
		shards = 8
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// job is a validated submission. checkJob fills everything the spec
// alone determines, plan key included, so malformed jobs fail as HTTP
// 400, never mid-stream. build adds the workload (topology and schedule
// parameters); only a flight leader builds it.
type job struct {
	spec   benchreport.JobSpec
	key    string
	sched  *broadcast.Schedule
	cfg    radio.Config
	shards int

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
		spec:   spec,
		key:    spec.PlanKey(),
		sched:  sched,
		cfg:    cfg,
		shards: s.ShardPlan(spec.Trials),
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

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec benchreport.JobSpec
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
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

// execute runs one job as the flight leader, streaming the NDJSON
// snapshot lines to w as shards complete. It returns the streamed bytes
// and the encoded terminal result or error line, unwritten: the body the
// cache (and any coalesced followers) will replay is the two joined, and
// the caller lands the flight before writing the terminal line. Client
// disconnection cancels ctx, which cancels the sweep; the job then
// finishes with an error line and is not cached.
func (s *Server) execute(ctx context.Context, jb *job, w http.ResponseWriter) (body, last []byte, err error) {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Plan-Key", jb.key)
	h.Set("X-Cache", "miss")

	sw := sim.NewSweep(sim.SweepConfig{Workers: s.cfg.Workers})
	rows := make([]*sim.Row, jb.shards)
	for i := range rows {
		start := i * jb.spec.Trials / jb.shards
		end := (i + 1) * jb.spec.Trials / jb.shards
		rows[i] = sw.AddScheduleShard(jb.sched, jb.top, jb.cfg, jb.params, start, end, jb.spec.Seed, scheduleValue)
	}
	s.metrics.inflight.Add(int64(jb.shards))
	errc := make(chan error, 1)
	go func() { errc <- sw.RunContext(jobCtx) }()

	merged := stats.NewAccumulator()
	var rowErr error
	for k, row := range rows {
		<-row.Done()
		s.metrics.inflight.Add(-1)
		if err := row.Err(); err != nil {
			rowErr = err
			// Abandon the rest of the job: cancel unstarted chunks, drain
			// the remaining shard gauge as their rows complete.
			cancel()
			for _, rest := range rows[k+1:] {
				<-rest.Done()
				s.metrics.inflight.Add(-1)
			}
			break
		}
		merged.Merge(row.Acc())
		if k < len(rows)-1 {
			// Interior snapshot: the merge of shards 0..k. The final
			// prefix is the result line below, not a duplicate snapshot.
			b := encodeLine(Line{Type: "snapshot", ShardsDone: k + 1, Shards: jb.shards, Stats: newStats(merged)})
			body = append(body, b...)
			writeLine(w, b)
		}
	}
	<-errc
	if rowErr != nil {
		return body, encodeLine(Line{Type: "error", Key: jb.key, Error: rowErr.Error()}), rowErr
	}
	return body, encodeLine(Line{
		Type:     "result",
		Key:      jb.key,
		Schedule: jb.spec.Schedule,
		Trials:   jb.spec.Trials,
		Shards:   jb.shards,
		Stats:    newStats(merged),
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

// scheduleValue is the one statistic the service folds: rounds to
// completion, with failed trials feeding the accumulator's dropped
// counter via the NaN sentinel — the same mapping the CLI's -schedule
// runner uses.
func scheduleValue(o broadcast.Outcome) (float64, error) {
	if !o.Success {
		return math.NaN(), nil
	}
	return float64(o.Rounds), nil
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
		"noisyserved_shards_inflight":    s.metrics.inflight.Load(),
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
