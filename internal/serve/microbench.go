package serve

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"time"

	"noisyradio/internal/benchreport"
)

// CacheMicrobench measures the sweep service's cold-vs-cached gap on one
// representative job — Decay on Complete(4096) — through a real HTTP
// round trip, and reports both as microbench rows for the
// BENCH_sweep.json artifact:
//
//	servecache/cold/decay-complete-4096  (executes the sweep)
//	servecache/hit/decay-complete-4096   (replays the cached body)
//
// NsPerRound here is nanoseconds per request (the "round" is one HTTP
// round trip); the benchgate -min-cachehit-speedup gate divides the two,
// so the unit cancels. The cold row is the median of five misses, each
// at a distinct seed and so a fresh plan key, so one slow or fast
// execution cannot move the gate; the hit row is the best of five
// replays of the first of them — the gate asserts what a cache hit can
// do, scheduler noise aside.
func CacheMicrobench() []benchreport.Microbench {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const samples = 5
	submit := func(seed uint64) float64 {
		spec := benchreport.JobSpec{
			Schedule: "decay",
			Topology: "complete",
			N:        4096,
			Fault:    "sender",
			P:        0.1,
			Seed:     seed,
			Trials:   512, // big enough that cold is solidly macroscopic (tens of ms) against a ~50µs hit
		}
		start := time.Now()
		if _, err := Submit(context.Background(), ts.URL, spec, nil); err != nil {
			panic(fmt.Sprintf("serve: cache microbench job failed: %v", err))
		}
		return float64(time.Since(start).Nanoseconds())
	}
	cold := make([]float64, samples)
	for i := range cold {
		cold[i] = submit(uint64(i + 1))
	}
	slices.Sort(cold)
	hit := math.Inf(1)
	for range samples {
		hit = min(hit, submit(1)) // seed 1 missed above, so this replays its body
	}
	return []benchreport.Microbench{
		{Name: "servecache/cold/decay-complete-4096", NsPerRound: cold[samples/2]},
		{Name: "servecache/hit/decay-complete-4096", NsPerRound: hit},
	}
}
