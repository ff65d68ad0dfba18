package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/serve"
	"noisyradio/internal/sim"
)

// The serve-mix job vocabulary: the schedules, topologies (path, listed
// twice, is a quarter of them, as when a topology is drawn uniformly and
// then a size for the others), noise models, p values and trial counts.
var (
	mixSchedules  = []string{"decay", "decay-unknown-n", "fastbc", "robust-fastbc"}
	mixTopologies = []struct {
		name string
		n    int
	}{{"grid", 256}, {"grid", 1024}, {"hypercube", 256}, {"hypercube", 1024}, {"path", 128}, {"path", 128}, {"complete", 256}, {"complete", 1024}}
	mixFaults = []string{"sender", "receiver"}
	mixP      = []float64{0.1, 0.3, 0.5}
	mixTrials = []int{32, 64, 128}
)

const (
	submissions = 3 // each spec is submitted once new and twice as a repeat
	verifySpecs = 8 // specs whose service result is checked against a local fold
	spanHeader  = "X-Bench-Span"
)

// script is one pass of the serve-mix workload: the distinct job specs
// and, per client, the order in which it submits them.
type script struct {
	specs   []benchreport.JobSpec
	clients [][]int // per client, the spec index of each job in order
}

// newScript builds the pass for a seed.
//
// Each client owns one spec for each entry of mixSchedules ×
// mixTopologies × mixTrials, 96 specs. Within each schedule-topology
// pair the seed permutes the p values over the three trial counts, and
// each spec's noise model is dealt from shuffled sender-receiver pairs.
// Every pass at every seed thus simulates the same shapes at the same p
// values, split evenly between the clients: the seed moves which spec
// gets which p and noise model, the specs' own seeds, and the order, not
// the amount of work (README.md has the spread that independent draws
// gave instead).
//
// Every spec is submitted three times: new by its owner, and as a repeat
// by each of the next two clients (mod the client count), so a third of
// each client's 288 jobs are new. Job j of client c is at step
// j·clients + c of one global order. At each step the job is a new spec
// with probability (new specs left) / (jobs left), and otherwise a repeat
// drawn uniformly from the client's pending repeats of specs issued at an
// earlier step. The repeat's reply is then a cache hit, or, while the
// spec still runs, a job coalesced onto it. When none is issued yet the
// repeat overtakes its spec's first submission and is the miss. Each spec
// misses exactly once, so misses, and hits plus coalesced jobs, are fixed
// by the script.
func newScript(seed uint64, clients int) script {
	r := rng.NewFrom(seed, 1<<32)
	s := script{clients: make([][]int, clients)}
	fresh := make([][]int, clients)   // per client, its new specs in issue order
	pending := make([][]int, clients) // per client, the specs it still repeats
	for c := range clients {
		var faults []int
		for _, sched := range mixSchedules {
			for _, top := range mixTopologies {
				ps := r.Perm(len(mixP))
				for t, trials := range mixTrials {
					if len(faults) == 0 {
						faults = r.Perm(len(mixFaults))
					}
					i := len(s.specs)
					s.specs = append(s.specs, benchreport.JobSpec{
						Schedule: sched,
						Topology: top.name,
						N:        top.n,
						Fault:    mixFaults[faults[0]],
						P:        mixP[ps[t]],
						Seed:     rng.NewFrom(seed, uint64(i)).Uint64(),
						Trials:   trials,
					})
					faults = faults[1:]
					fresh[c] = append(fresh[c], i)
					for k := 1; k < submissions; k++ {
						d := (c + k) % clients
						pending[d] = append(pending[d], i)
					}
				}
			}
		}
		r.Shuffle(len(fresh[c]), func(a, b int) { fresh[c][a], fresh[c][b] = fresh[c][b], fresh[c][a] })
	}
	issued := make([]bool, len(s.specs))
	for step := range len(s.specs) * submissions {
		c := step % clients
		var ready []int // positions in pending[c] of issued specs
		for k, i := range pending[c] {
			if issued[i] {
				ready = append(ready, k)
			}
		}
		left := len(fresh[c])
		var i int
		if left > 0 && (len(ready) == 0 || r.Intn(left+len(pending[c])) < left) {
			i, fresh[c] = fresh[c][0], fresh[c][1:]
			issued[i] = true
		} else {
			k := r.Intn(len(pending[c]))
			if len(ready) > 0 {
				k = ready[r.Intn(len(ready))]
			}
			i = pending[c][k]
			pending[c] = slices.Delete(pending[c], k, k+1)
		}
		s.clients[c] = append(s.clients[c], i)
	}
	return s
}

// serveMix drives an in-process sweep service on a loopback HTTP server
// with one closed-loop client per processor, each on its own connection.
type serveMix struct {
	seed   uint64
	procs  int
	script script

	mu     sync.Mutex
	bodies map[string][]byte // plan key → body of the key's first miss
}

// setupServeMix builds the script and warms a service up: a short decay
// job on each topology of the mix, submitted twice, on a server that is
// then shut down.
func setupServeMix(seed uint64, _ string) (instance, error) {
	m := &serveMix{seed: seed, procs: runtime.GOMAXPROCS(0), script: newScript(seed, runtime.GOMAXPROCS(0)), bodies: map[string][]byte{}}
	var warm []benchreport.JobSpec
	for _, top := range mixTopologies {
		warm = append(warm, benchreport.JobSpec{Schedule: "decay", Topology: top.name, N: top.n, Fault: "receiver", P: 0.1, Seed: seed, Trials: 32})
	}
	err := m.withServer(nil, func(url string, clients []*http.Client) error {
		for _, spec := range append(warm, warm...) {
			if res := submit(clients[0], url, spec, nil, 0); res.err != nil {
				return fmt.Errorf("warm-up job: %w", res.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// withServer starts a fresh service on a loopback listener, runs fn with
// its URL and one single-connection client per processor, then shuts the
// server down and waits for it to stop.
func (m *serveMix) withServer(tr *tracer, fn func(url string, clients []*http.Client) error) error {
	var h http.Handler = serve.NewServer(serve.Config{Workers: m.procs})
	if tr != nil {
		h = handlerSpans(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	clients := make([]*http.Client, m.procs)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	ferr := fn("http://"+ln.Addr().String(), clients)
	serr := hs.Shutdown(context.Background())
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	return errors.Join(ferr, serr)
}

// handlerSpans wraps the service in a serve.handler span per request,
// parented to the client's serve.request span named in the request header.
func handlerSpans(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sp := tr.start("serve.handler", parent)
		next.ServeHTTP(w, r)
		sp.end(map[string]any{"path": r.URL.Path, "cache": w.Header().Get("X-Cache")})
	})
}

// jobResult is one submitted job as its client saw it.
type jobResult struct {
	key       string
	cache     string
	latencyMs float64
	firstMs   float64 // time to the first NDJSON line
	body      []byte
	err       error
}

// submit posts one job and reads its NDJSON stream to the end.
func submit(c *http.Client, url string, spec benchreport.JobSpec, tr *tracer, parent int64) jobResult {
	res := jobResult{key: spec.PlanKey()}
	payload, err := json.Marshal(spec)
	if err != nil {
		res.err = err
		return res
	}
	sp := tr.start("serve.request", parent)
	defer func() { sp.end(map[string]any{"cache": res.cache, "key": res.key}) }()
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if sp.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.cache = resp.Header.Get("X-Cache")
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	res.firstMs = msSince(t0)
	if err != nil && err != io.EOF {
		res.err = err
		return res
	}
	rest, err := io.ReadAll(br)
	res.latencyMs = msSince(t0)
	if err != nil {
		res.err = err
		return res
	}
	res.body = append(first, rest...)
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(res.body)))
		return res
	}
	last, err := lastLine(res.body)
	if err != nil {
		res.err = err
	} else if last.Type != "result" {
		res.err = fmt.Errorf("job %s ended with a %q line: %s", res.key, last.Type, last.Error)
	}
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// lastLine decodes the terminal line of an NDJSON body.
func lastLine(body []byte) (serve.Line, error) {
	var line serve.Line
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("decoding terminal line: %w", err)
	}
	return line, nil
}

func (m *serveMix) units() []unit {
	return []unit{{name: "script", run: m.pass}}
}

// pass runs the script once against a fresh server: every client submits
// its jobs back to back, each waiting for the previous reply.
func (m *serveMix) pass(tr *tracer, parent int64) (outcome, error) {
	trials0, plans0 := sim.TotalTrials(), planCounts()
	results := make([][]jobResult, len(m.script.clients))
	var scraped map[string]float64
	err := m.withServer(tr, func(url string, clients []*http.Client) error {
		var wg sync.WaitGroup
		for c, jobs := range m.script.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range jobs {
					results[c] = append(results[c], submit(clients[c], url, m.script.specs[i], tr, parent))
				}
			}()
		}
		wg.Wait()
		var err error
		scraped, err = scrapeMetrics(clients[0], url)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	counts, _ := simCounts(trials0, plans0)
	for name, key := range map[string]string{
		"serve.hits": "noisyserved_cache_hits_total", "serve.misses": "noisyserved_cache_misses_total",
		"serve.coalesced": "noisyserved_coalesced_total", "serve.errored": "noisyserved_jobs_errored_total",
	} {
		counts[name] = scraped[key]
	}
	var jobs []jobResult
	for _, js := range results {
		jobs = append(jobs, js...)
	}
	// A repeat can reach the server before another client's first
	// submission of its spec, so misses are checked, and their bodies
	// recorded, before the jobs that replay them.
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].cache == "miss" && jobs[b].cache != "miss" })
	out := outcome{counts: counts, samples: map[string][]float64{}, requests: len(jobs)}
	var errs []error
	missBodies := map[string][]byte{}
	for _, j := range jobs {
		if err := m.checkBody(j); err != nil {
			out.failures++
			errs = append(errs, err)
			continue
		}
		switch j.cache {
		case "miss":
			out.samples["cold_ms"] = append(out.samples["cold_ms"], j.latencyMs)
			out.samples["first_line_ms"] = append(out.samples["first_line_ms"], j.firstMs)
			missBodies[j.key] = j.body
		case "hit":
			out.samples["hit_ms"] = append(out.samples["hit_ms"], j.latencyMs)
		}
	}
	counts["serve.jobs"] = float64(out.requests)
	keys := make([]string, 0, len(missBodies))
	for k := range missBodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(missBodies[k])
	}
	// Whether a repeat hits or coalesces depends on timing; their sum
	// does not.
	out.fingerprint = fmt.Sprintf("misses=%d hits+coalesced=%d bodies=%s",
		len(keys), int(counts["serve.hits"]+counts["serve.coalesced"]), hex.EncodeToString(h.Sum(nil)))
	return out, errors.Join(errs...)
}

// checkBody fails a job that errored, and any body that differs from the
// first miss of its plan key: a hit or coalesced job must replay that body
// byte for byte, and a later miss (a fresh server) must reproduce it.
func (m *serveMix) checkBody(j jobResult) error {
	if j.err != nil {
		return fmt.Errorf("job %s: %w", j.key, j.err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	first, ok := m.bodies[j.key]
	switch {
	case !ok && j.cache == "miss":
		m.bodies[j.key] = j.body
	case !ok:
		return fmt.Errorf("job %s: %s before any miss of its key", j.key, j.cache)
	case !bytes.Equal(first, j.body):
		return fmt.Errorf("job %s: %s body differs from the key's first miss", j.key, j.cache)
	}
	return nil
}

// scrapeMetrics reads the service's counters from GET /metrics.
func scrapeMetrics(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[name] = f
	}
	return out, sc.Err()
}

func (m *serveMix) extras(ph *phase) ([]metric, error) {
	if ph.tr == nil {
		out := []metric{{Name: "jobs_per_s", Value: ph.passCount("serve.jobs") / ph.wallSeconds(), Unit: "1/s"}}
		out = append(out, latencyMetrics("cold", ph.samples["cold_ms"], true)...)
		out = append(out, latencyMetrics("first_line", ph.samples["first_line_ms"], false)...)
		out = append(out, latencyMetrics("hit", ph.samples["hit_ms"], true)...)
		return out, nil
	}
	spans := ph.tr.snapshot()
	requests := map[int64]span{}
	for _, s := range named(spans, "serve.request") {
		requests[s.ID] = s
	}
	var hit, miss, client []float64
	for _, s := range named(spans, "serve.handler") {
		if s.Attrs["path"] != "/v1/jobs" {
			continue
		}
		ms := float64(s.dur()) / 1e6
		switch s.Attrs["cache"] {
		case "miss":
			miss = append(miss, ms)
		case "hit":
			hit = append(hit, ms)
		}
		if req, ok := requests[s.Parent]; ok {
			client = append(client, float64(req.dur()-s.dur())/1e6)
		}
	}
	var build []float64
	for _, spec := range m.script.specs {
		sp := ph.tr.start("experiments.workload", 0)
		t0 := time.Now()
		if _, _, err := experiments.ScheduleWorkload(broadcast.MustSchedule(spec.Schedule), spec.Topology, spec.N, 1, spec.Seed); err != nil {
			return nil, err
		}
		build = append(build, msSince(t0))
		sp.end(map[string]any{"topology": spec.Topology, "n": spec.N, "schedule": spec.Schedule})
	}
	var out []metric
	out = append(out, latencyMetrics("serve.handler_hit", hit, true)...)
	out = append(out, latencyMetrics("serve.handler_miss", miss, false)...)
	out = append(out, latencyMetrics("serve.client", client, false)...)
	out = append(out, latencyMetrics("experiments.workload", build, false)...)
	sort.Float64s(build)
	return append(out,
		metric{Name: "experiments.workload_max_ms", Value: build[len(build)-1], Unit: "ms", Samples: len(build)},
		metric{Name: "serve.errored", Value: ph.passCount("serve.errored"), Unit: "count"},
	), nil
}

// verify checks the service against the simulator: for verifySpecs specs
// chosen by the seed, the service's result must equal an unsharded
// AddSchedule fold of the same trials run locally, exactly in count, sum,
// minimum and maximum.
func (m *serveMix) verify() error {
	perm := rng.NewFrom(m.seed, 2<<32).Perm(len(m.script.specs))
	for _, i := range perm[:verifySpecs] {
		spec := m.script.specs[i]
		m.mu.Lock()
		body, ok := m.bodies[spec.PlanKey()]
		m.mu.Unlock()
		if !ok {
			return fmt.Errorf("%s: no service result", spec.Canonical())
		}
		got, err := lastLine(body)
		if err != nil {
			return err
		}
		want, err := localFold(spec, m.procs)
		if err != nil {
			return err
		}
		if got.Stats == nil || !sameStats(*got.Stats, want) {
			return fmt.Errorf("%s: service result %+v differs from the local fold %+v", spec.Canonical(), got.Stats, want)
		}
	}
	return nil
}

// foldStats is the exactly mergeable part of an accumulator.
type foldStats struct {
	n, dropped      int
	sum, minV, maxV float64
}

func sameStats(s serve.Stats, w foldStats) bool {
	eq := func(p *float64, v float64) bool { return p != nil && *p == v }
	return s.N == w.n && s.Dropped == w.dropped && eq(s.Sum, w.sum) && eq(s.Min, w.minV) && eq(s.Max, w.maxV)
}

// localFold runs a job spec's trials as one unsharded sweep row, resolving
// the spec the way the service documents it.
func localFold(spec benchreport.JobSpec, workers int) (foldStats, error) {
	sched, err := broadcast.LookupSchedule(spec.Schedule)
	if err != nil {
		return foldStats{}, err
	}
	fault, err := radio.ParseFaultModel(spec.Fault)
	if err != nil {
		return foldStats{}, err
	}
	top, params, err := experiments.ScheduleWorkload(sched, spec.Topology, spec.N, 1, spec.Seed)
	if err != nil {
		return foldStats{}, err
	}
	cfg := radio.Config{Fault: fault}
	if fault != radio.Faultless {
		cfg.P = spec.P
	}
	sw := sim.NewSweep(sim.SweepConfig{Workers: workers, TrialBatch: sim.TrialBatchAuto})
	row := sw.AddSchedule(sched, top, cfg, params, spec.Trials, spec.Seed, roundsValue)
	if err := sw.Run(); err != nil {
		return foldStats{}, err
	}
	acc := row.Acc()
	return foldStats{n: acc.N(), dropped: acc.Dropped(), sum: acc.Sum(), minV: acc.Min(), maxV: acc.Max()}, nil
}
