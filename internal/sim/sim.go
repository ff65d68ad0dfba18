// Package sim runs Monte-Carlo trials in parallel.
//
// Trials are embarrassingly parallel: each receives its own deterministic
// rng.Stream derived from (seed, trial index), so results are identical at
// any worker count — parallelism changes wall-clock time only, never
// output. This is the concurrency backbone of the experiment harness.
//
// Two entry points are provided. Run executes one batch of trials and
// buffers every value. Sweep schedules many batches ("rows" of an
// experiment table) on one shared worker pool with streaming, chunk-ordered
// statistics — the row-parallel path the experiment harness uses so that
// rows with tiny trial counts still saturate the machine.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"noisyradio/internal/rng"
)

// TrialFunc is one Monte-Carlo trial: a pure function of the trial index
// and its private randomness stream.
type TrialFunc func(trial int, r *rng.Stream) (float64, error)

// totalTrials counts trials executed process-wide, for the benchmark
// harness (see TotalTrials).
var totalTrials atomic.Int64 //lint:deterministic-ok process-cumulative report counter that no trial reads

// TotalTrials returns the number of Monte-Carlo trials executed by this
// process so far, across Run and Sweep. It only ever grows; benchmark
// harnesses read it before and after a suite to derive per-trial costs.
func TotalTrials() int64 { return totalTrials.Load() }

// dispatchChunk picks how many trials a worker claims per handoff: large
// enough that the atomic-counter dispatch cost vanishes for cheap trial
// functions, small enough that the tail stays balanced across workers.
func dispatchChunk(trials, workers int) int {
	c := trials / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > 1024 {
		return 1024
	}
	return c
}

// trialError records the failure of the lowest-indexed failing trial, so
// the reported error is deterministic at every worker count.
type trialError struct {
	mu    sync.Mutex
	trial int
	err   error
}

func (e *trialError) record(trial int, err error) {
	e.mu.Lock()
	if e.err == nil || trial < e.trial {
		e.trial, e.err = trial, err
	}
	e.mu.Unlock()
}

func (e *trialError) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		return nil
	}
	return fmt.Errorf("sim: trial %d: %w", e.trial, e.err)
}

// Run executes fn for trial indices 0..trials-1 across workers goroutines
// and returns the per-trial values in trial order. A workers value <= 0
// selects GOMAXPROCS. Workers claim trials in chunks off an atomic counter
// (no per-trial channel handoff), so dispatch overhead is negligible even
// for sub-microsecond trial functions. The lowest-indexed failing trial's
// error is returned (all trials still run to completion; no goroutines
// leak).
func Run(trials, workers int, seed uint64, fn TrialFunc) ([]float64, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials = %d, need > 0", trials)
	}
	if fn == nil {
		return nil, fmt.Errorf("sim: nil trial function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	results := make([]float64, trials)
	var (
		firstErr trialError
		next     atomic.Int64
	)
	chunk := int64(dispatchChunk(trials, workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := next.Add(chunk) - chunk
				if start >= int64(trials) {
					return
				}
				end := start + chunk
				if end > int64(trials) {
					end = int64(trials)
				}
				for trial := int(start); trial < int(end); trial++ {
					v, err := fn(trial, rng.NewFrom(seed, uint64(trial)))
					if err != nil {
						firstErr.record(trial, err)
						continue
					}
					results[trial] = v
				}
				// One shared-counter touch per chunk, not per trial — the
				// same contention argument as the chunked dispatch itself.
				totalTrials.Add(end - start)
			}
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return results, nil
}

// RunMany is Run for trial functions producing several named values at
// once (e.g. rounds for two competing algorithms under shared randomness).
// It returns one slice per name, each in trial order.
func RunMany(trials, workers int, seed uint64, names []string, fn func(trial int, r *rng.Stream) (map[string]float64, error)) (map[string][]float64, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("sim: RunMany needs at least one name")
	}
	out := make(map[string][]float64, len(names))
	for _, n := range names {
		out[n] = make([]float64, trials)
	}
	_, err := Run(trials, workers, seed, func(trial int, r *rng.Stream) (float64, error) {
		vals, err := fn(trial, r)
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			v, ok := vals[n]
			if !ok {
				return 0, fmt.Errorf("sim: trial result missing value %q", n)
			}
			out[n][trial] = v
		}
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
