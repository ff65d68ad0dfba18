// Package sim runs Monte-Carlo trials in parallel.
//
// Trials are embarrassingly parallel: each receives its own deterministic
// rng.Stream derived from (seed, trial index), so results are identical at
// any worker count — parallelism changes wall-clock time only, never
// output. This is the concurrency backbone of the experiment harness.
//
// Sweep is the one trial executor: it schedules many batches ("rows" of an
// experiment table) on one shared worker pool with streaming, chunk-ordered
// statistics, so that rows with tiny trial counts still saturate the
// machine.
package sim

import (
	"fmt"
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
// process so far, across every Sweep. It only ever grows; benchmark
// harnesses read it before and after a suite to derive per-trial costs.
func TotalTrials() int64 { return totalTrials.Load() }

// dispatchChunk picks how many trials a worker claims per handoff: large
// enough that the per-chunk handoff cost vanishes for cheap trial
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
