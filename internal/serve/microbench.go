package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"noisyradio/internal/benchreport"
)

// CacheMicrobench measures the sweep service's cold-vs-cached gap on one
// representative job — Decay on Complete(4096) — inside the service, and
// reports both as microbench rows for the BENCH_sweep.json artifact:
//
//	servecache/cold/decay-complete-4096  (executes the sweep)
//	servecache/hit/decay-complete-4096   (replays the cached body)
//
// Every request goes straight to Server.ServeHTTP with an
// httptest.ResponseRecorder: no socket and no client decoding the NDJSON
// lines, whose fixed cost would bound the ratio the rows exist to show,
// so the rows time what the service itself does — execute the job, or
// look up its cached body and write it. TestCacheHitIsByteExact covers
// the hit path over HTTP. NsPerRound here is nanoseconds per request (the
// "round" is one request); the benchgate -min-cachehit-speedup gate
// divides the two, so the unit cancels. The cold row is the median of
// five misses, each at a distinct seed and so a fresh plan key, so one
// slow or fast execution cannot move the gate. The hit row replays the
// first of them: it is the median of five windows, each the mean of
// hitReplays replays, the protocol of the radio microbench rows, so one
// stalled replay spoils at most one window and cannot move the gate
// either. It panics unless every response is a 200 whose body ends in a
// result line and every hit's body equals its miss's byte for byte, so
// the rows can never time a rejection or a recomputation.
func CacheMicrobench() []benchreport.Microbench {
	srv := NewServer(Config{})

	const (
		samples    = 5
		hitReplays = 20
	)
	submit := func(seed uint64) (ns float64, body []byte) {
		spec, err := json.Marshal(benchreport.JobSpec{
			Schedule: "decay",
			Topology: "complete",
			N:        4096,
			Fault:    "sender",
			P:        0.1,
			Seed:     seed,
			Trials:   512, // big enough that cold is solidly macroscopic (milliseconds) against a hit of microseconds
		})
		if err != nil {
			panic(fmt.Sprintf("serve: cache microbench spec: %v", err))
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec))
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		ns = float64(time.Since(start).Nanoseconds())
		body = rec.Body.Bytes()
		if rec.Code != http.StatusOK || !endsInResult(body) {
			panic(fmt.Sprintf("serve: cache microbench job at seed %d answered %d: %s", seed, rec.Code, body))
		}
		return ns, body
	}
	cold := make([]float64, samples)
	var missed []byte // seed 1's body, which every hit replays
	for i := range cold {
		var body []byte
		cold[i], body = submit(uint64(i + 1))
		if i == 0 {
			missed = body
		}
	}
	slices.Sort(cold)
	hit := make([]float64, samples)
	for i := range hit {
		for range hitReplays {
			ns, body := submit(1)
			if !bytes.Equal(body, missed) {
				panic(fmt.Sprintf("serve: cache microbench hit replayed\n%s\nwhere its miss wrote\n%s", body, missed))
			}
			hit[i] += ns
		}
		hit[i] /= hitReplays
	}
	slices.Sort(hit)
	return []benchreport.Microbench{
		{Name: "servecache/cold/decay-complete-4096", NsPerRound: cold[samples/2]},
		{Name: "servecache/hit/decay-complete-4096", NsPerRound: hit[samples/2]},
	}
}

// endsInResult reports whether an NDJSON body's last line is a result
// line.
func endsInResult(body []byte) bool {
	body = bytes.TrimSuffix(body, []byte("\n"))
	var last Line
	return json.Unmarshal(body[bytes.LastIndexByte(body, '\n')+1:], &last) == nil && last.Type == "result"
}
