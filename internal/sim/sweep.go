package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/stats"
)

// SweepConfig tunes a Sweep. The zero value selects sensible defaults.
type SweepConfig struct {
	// Workers is the size of the shared worker pool; <= 0 selects
	// GOMAXPROCS. Every row's trials run on this one pool.
	Workers int
	// RowWorkers bounds how many rows may be in flight at once; <= 0
	// admits every row immediately. Lower values bound the live scratch
	// memory (each in-flight row keeps its own networks and chunk buffers
	// warm); the output is identical at every setting.
	RowWorkers int
	// ChunkSize overrides the trials-per-handoff chunking; <= 0 picks
	// automatically from the row's trial count and the pool size.
	ChunkSize int
	// TrialBatch selects nothing: every trial runs scalar.
	//
	// Deprecated: trials no longer run in lockstep batches.
	TrialBatch int
}

// TrialBatchAuto was the SweepConfig.TrialBatch value that planned a
// lockstep width per row.
//
// Deprecated: trials no longer run in lockstep batches.
const TrialBatchAuto = -1

// Sweep schedules the Monte-Carlo rows of one experiment table on a single
// shared worker pool. Usage is two-phase: register every row with Add (or
// Go for coarse row-level tasks), call Run once, then read each Row's
// accumulator and error.
//
// Rows are independent: each trial draws its rng.Stream from the row's
// (seed, trial index) pair, and each row's values are folded into its
// stats.Accumulator in strict trial order (workers hand completed chunks
// to an in-order folder), so every statistic — including the running-sum
// mean and the order-sensitive P² quantiles — is bit-identical at every
// Workers/RowWorkers/ChunkSize setting. Memory per row is O(chunk size ×
// (workers + maxPendingChunks)), independent of the trial count: the
// folder's out-of-order backlog is capped, so even a pathologically slow
// early chunk cannot make a million-trial row buffer its values.
type Sweep struct {
	cfg  SweepConfig
	rows []*Row
	ran  bool
	ctx  context.Context // the RunContext context; set once at Run
}

// NewSweep returns an empty sweep with the given configuration.
func NewSweep(cfg SweepConfig) *Sweep {
	return &Sweep{cfg: cfg}
}

// Row is one registered unit of sweep work: either a batch of trials
// feeding an accumulator, or a coarse task. Its accessors are valid only
// after the owning Sweep.Run returns.
type Row struct {
	sweep  *Sweep
	trials int
	seed   uint64
	fn     TrialFunc
	task   func() error

	chunk   int // trials per work unit
	nchunks int

	// Schedule-row plan record (set by AddSchedule): the schedule name,
	// the resolved radio engine of the schedule's topology and the
	// draw-contract label (radio.Config.DrawLabel).
	sched      string
	planEngine radio.Engine
	planDraw   string

	// base offsets the row's trial indices: trial i of this row draws the
	// stream of global trial base+i (rng.NewFrom(seed, base+i)). Zero for
	// whole rows; set by AddScheduleShard so a set of shards covering
	// [0, trials) executes exactly the trials of the unsharded row.
	base int

	mu      sync.Mutex
	cond    sync.Cond // signalled when next advances; bounds the pending backlog
	acc     stats.Accumulator
	next    int // next chunk index to fold, guarded by mu
	pending map[int][]float64
	done    chan struct{}

	err     trialError
	taskErr error // error of a Go task row, reported unwrapped
}

// Add registers a row of trials. fn runs once per trial index in
// [0, trials) with a deterministic per-(seed, trial) stream, exactly like
// Run. It panics on invalid arguments (a programming error in the caller,
// not a data condition).
func (s *Sweep) Add(trials int, seed uint64, fn TrialFunc) *Row {
	if trials <= 0 {
		panic(fmt.Sprintf("sim: Sweep.Add trials = %d, need > 0", trials))
	}
	if fn == nil {
		panic("sim: Sweep.Add nil trial function")
	}
	if s.ran {
		panic("sim: Sweep.Add after Run")
	}
	row := &Row{sweep: s, trials: trials, seed: seed, fn: fn, done: make(chan struct{})}
	s.rows = append(s.rows, row)
	return row
}

// BatchTrialFunc ran the len(rnds) consecutive trials starting at trial
// index start in lockstep: one value per trial in trial order, plus nil
// or a parallel error slice.
//
// Deprecated: trials no longer run in lockstep batches; no sweep calls a
// BatchTrialFunc.
type BatchTrialFunc func(start int, rnds []*rng.Stream) ([]float64, []error)

// AdaptBatch converts a batch runner over result type R into a
// BatchTrialFunc: a batch-level error fails every trial in the batch, and
// value maps each per-trial result to its (value, error).
//
// Deprecated: trials no longer run in lockstep batches; register the row
// with Add and its scalar trial function.
func AdaptBatch[R any](run func(rnds []*rng.Stream) ([]R, error), value func(R) (float64, error)) BatchTrialFunc {
	return func(start int, rnds []*rng.Stream) ([]float64, []error) {
		results, err := run(rnds)
		if err != nil {
			errs := make([]error, len(rnds))
			for i := range errs {
				errs[i] = err
			}
			return make([]float64, len(rnds)), errs
		}
		vals := make([]float64, len(results))
		var errs []error
		for i, res := range results {
			v, err := value(res)
			if err != nil {
				if errs == nil {
					errs = make([]error, len(results))
				}
				errs[i] = err
				continue
			}
			vals[i] = v
		}
		return vals, errs
	}
}

// AddBatch registers a row of trials exactly as Add does; batch is
// ignored.
//
// Deprecated: use Add.
func (s *Sweep) AddBatch(trials int, seed uint64, fn TrialFunc, batch BatchTrialFunc) *Row {
	return s.Add(trials, seed, fn)
}

// Go registers a coarse row-level task: one function executed once on the
// shared pool, for table rows that are not Monte-Carlo shaped (structural
// constructions, inline sampling loops). The task must confine its side
// effects to its own captures; tasks from different rows run concurrently.
func (s *Sweep) Go(task func() error) *Row {
	if task == nil {
		panic("sim: Sweep.Go nil task")
	}
	if s.ran {
		panic("sim: Sweep.Go after Run")
	}
	row := &Row{sweep: s, task: task, done: make(chan struct{})}
	s.rows = append(s.rows, row)
	return row
}

// chunkTask is one unit of pool work: a contiguous slice of a row's trials
// (or the row's whole coarse task when the row was registered with Go).
type chunkTask struct {
	row        *Row
	idx        int // chunk index within the row, for in-order folding
	start, end int // trial range [start, end)
}

// Run executes every registered row on the shared pool and returns the
// first error in row-registration order (every row still runs to
// completion). It must be called exactly once.
func (s *Sweep) Run() error {
	return s.RunContext(context.Background())
}

// RunContext is Run under a cancellable context — the sweep service's
// per-job cancellation path. Cancellation is cooperative at chunk
// granularity: chunks already executing finish, chunks not yet started
// fold empty with the context's error recorded as their trials' failure,
// so every row still completes (Done still closes, no goroutine leaks)
// and the first cancelled row reports the context error through the usual
// row-error channel. A run that finishes all chunks before the
// cancellation lands is a complete, valid result and returns nil.
func (s *Sweep) RunContext(ctx context.Context) error {
	if s.ran {
		return fmt.Errorf("sim: Sweep.Run called twice")
	}
	s.ran = true
	s.ctx = ctx
	if len(s.rows) == 0 {
		return nil
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rowWorkers := s.cfg.RowWorkers
	if rowWorkers <= 0 || rowWorkers > len(s.rows) {
		rowWorkers = len(s.rows)
	}

	for _, row := range s.rows {
		row.pending = make(map[int][]float64)
		row.cond.L = &row.mu
		if row.task != nil {
			row.chunk, row.nchunks = 1, 1
			continue
		}
		row.chunk = s.cfg.ChunkSize
		if row.chunk <= 0 {
			row.chunk = dispatchChunk(row.trials, workers)
		}
		if row.sched != "" {
			recordPlan(benchreport.Plan{
				Schedule: row.sched,
				Engine:   row.planEngine.String(),
				Draw:     row.planDraw,
				Trials:   row.trials,
				Width:    1,
				Reason:   "scalar",
			})
		}
		row.nchunks = (row.trials + row.chunk - 1) / row.chunk
	}

	work := make(chan chunkTask)
	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for t := range work {
				t.row.runChunk(t)
			}
		}()
	}

	// Admit rows in registration order, at most rowWorkers in flight. The
	// admission goroutine of a row streams its chunks into the shared work
	// channel and holds the row's slot until the row is fully folded.
	sem := make(chan struct{}, rowWorkers)
	var admitted sync.WaitGroup
	for _, row := range s.rows {
		sem <- struct{}{}
		admitted.Add(1)
		go func(row *Row) {
			defer admitted.Done()
			for idx := 0; idx < row.nchunks; idx++ {
				start := idx * row.chunk
				end := start + row.chunk
				if end > row.trials {
					end = row.trials
				}
				work <- chunkTask{row: row, idx: idx, start: start, end: end}
			}
			<-row.done
			<-sem
		}(row)
	}
	admitted.Wait()
	close(work)
	pool.Wait()

	for _, row := range s.rows {
		if err := row.errOut(); err != nil {
			return err
		}
	}
	return nil
}

// errOut returns the row's error: the lowest-trial failure for trial rows,
// the task's own error (unwrapped) for Go rows.
func (row *Row) errOut() error {
	if row.task != nil {
		return row.taskErr
	}
	return row.err.get()
}

// runChunk executes one work unit on a pool worker.
func (row *Row) runChunk(t chunkTask) {
	if err := row.sweep.ctx.Err(); err != nil {
		// Cancelled before this chunk started: fold it empty with the
		// context error recorded, so the row still completes and reports
		// the cancellation. Chunks already running are never interrupted.
		if row.task != nil {
			row.taskErr = err
		} else {
			row.err.record(row.base+t.start, err)
		}
		row.fold(t.idx, nil)
		return
	}
	if row.task != nil {
		if err := row.task(); err != nil {
			row.taskErr = err
		}
		row.fold(0, nil)
		return
	}
	vals := make([]float64, 0, t.end-t.start)
	for trial := t.start; trial < t.end; trial++ {
		vals = append(vals, row.runTrial(trial))
	}
	totalTrials.Add(int64(t.end - t.start)) // one counter touch per chunk
	row.fold(t.idx, vals)
}

// runTrial executes one trial of the row, recording a failure as value 0
// and the lowest-trial error. The trial index is row-local; the rng
// stream (and the recorded failure index) use the global base+trial, so
// shard rows replay exactly the trials of their unsharded twin.
func (row *Row) runTrial(trial int) float64 {
	v, err := row.fn(row.base+trial, rng.NewFrom(row.seed, uint64(row.base+trial)))
	if err != nil {
		row.err.record(row.base+trial, err)
		v = 0
	}
	return v
}

// maxPendingChunks bounds the out-of-order backlog a row may buffer while
// one slow early chunk holds up in-order folding, keeping the row's
// memory O(maxPendingChunks × chunk size) even for heavy-tailed trial
// costs. Workers holding a later chunk wait; the worker executing the
// in-order chunk never does (chunks are dispatched in index order, so the
// in-order chunk is always already running), which rules out deadlock.
const maxPendingChunks = 32

// fold hands a completed chunk to the row's in-order folder: chunks are
// buffered until every earlier chunk has arrived, then folded into the
// accumulator in trial order. This is what keeps streaming statistics
// bit-identical at every worker count.
func (row *Row) fold(idx int, vals []float64) {
	row.mu.Lock()
	for idx > row.next && len(row.pending) >= maxPendingChunks {
		row.cond.Wait()
	}
	row.pending[idx] = vals
	advanced := false
	for {
		v, ok := row.pending[row.next]
		if !ok {
			break
		}
		delete(row.pending, row.next)
		for _, x := range v {
			row.acc.Add(x)
		}
		row.next++
		advanced = true
	}
	complete := row.next == row.nchunks
	if advanced {
		row.cond.Broadcast()
	}
	row.mu.Unlock()
	if complete {
		close(row.done)
	}
}

// ready panics unless the owning sweep has run; reading a Row before
// Sweep.Run is a phase error in the caller.
func (row *Row) ready() {
	if !row.sweep.ran {
		panic("sim: Row read before Sweep.Run")
	}
}

// Acc returns the row's accumulator. Valid after Sweep.Run.
func (row *Row) Acc() *stats.Accumulator {
	row.ready()
	return &row.acc
}

// Done returns a channel closed once every chunk of the row has been
// folded. It is safe to retain from registration time and to wait on
// concurrently with RunContext — the sweep service uses it to stream a
// row's result the moment that row completes, before sibling rows finish.
// Under cancellation the channel still closes (unstarted chunks fold
// empty), so waiters never leak. If the owning sweep is never run, the
// channel never closes.
func (row *Row) Done() <-chan struct{} { return row.done }

// Err returns the row's first (lowest trial index) error, or nil. Valid
// after Sweep.Run.
func (row *Row) Err() error {
	row.ready()
	return row.errOut()
}

// Mean returns the row's mean value — identical to stats.Mean over the
// row's values in trial order. Valid after Sweep.Run.
func (row *Row) Mean() float64 { return row.Acc().Mean() }

// CI95 returns the row's 95% confidence half-width. Valid after Sweep.Run.
func (row *Row) CI95() float64 { return row.Acc().CI95() }
