package sim

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/stats"
)

// planWidth resolves the effective lockstep width of one batch-capable
// row from the sweep's TrialBatch setting: TrialBatchAuto asks the radio
// planner with the row's resolved engine and trial count, a forced width
// is clamped to MaxTrialBatch, anything else runs scalar. A schedule row
// plans scalar whenever Schedule.RunBatch would run its trials one by one
// anyway — the schedule has no lockstep twin, or (for a forced width) its
// topology resolves to the sparse or implicit engine — so the plan log
// never claims lockstep the row does not run.
func (s *Sweep) planWidth(row *Row) (int, string) {
	tb := s.cfg.TrialBatch
	switch {
	case tb != TrialBatchAuto && tb <= 1:
		return 1, "scalar (trial batching off)"
	case row.sched != "" && !row.planLockstep:
		return 1, "scalar: " + row.sched + " has no lockstep twin"
	case tb == TrialBatchAuto || row.planEngine == radio.Sparse || row.planEngine == radio.Implicit:
		return radio.PlanBatchWidth(row.planEngine, row.trials)
	case tb > MaxTrialBatch:
		return MaxTrialBatch, fmt.Sprintf("forced width clamped to %d", MaxTrialBatch)
	default:
		return tb, fmt.Sprintf("forced width %d", tb)
	}
}

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
	// automatically from the row's trial count and the pool size. When
	// trial batching is on, the effective chunk is rounded up to a
	// multiple of the batch width so chunks split into whole batches.
	ChunkSize int
	// TrialBatch is the lockstep batch width W for rows registered with a
	// batch-capable trial function (AddBatch or AddSchedule): a worker runs
	// W consecutive trials of such a row through one batched execution
	// instead of W scalar ones. 0 (or 1) runs everything scalar; values
	// beyond MaxTrialBatch are clamped; TrialBatchAuto plans the width per
	// row from its trial count and its resolved radio engine
	// (radio.PlanBatchWidth: MaxTrialBatch on the dense engine, scalar
	// elsewhere). Schedule rows that cannot run lockstep — no lockstep
	// twin, or a sparse or implicit engine — run scalar at every setting.
	// Purely a throughput knob: a batch trial function is required to
	// reproduce its scalar twin trial-for-trial (the broadcast and radio
	// packages enforce this by test), and values are folded in trial order
	// either way, so every statistic is bit-identical at every width and
	// under auto planning.
	TrialBatch int
}

// TrialBatchAuto selects the lockstep width per row by execution planning
// instead of a fixed W: see SweepConfig.TrialBatch.
const TrialBatchAuto = -1

// MaxTrialBatch caps SweepConfig.TrialBatch at the lockstep kernel's
// lane count (radio.MaxBatchWidth).
const MaxTrialBatch = radio.MaxBatchWidth

// ParseTrialBatch converts a -trialbatch flag value, as the commands
// spell it: "auto" plans the width per row (TrialBatchAuto), "0" and "1"
// run scalar, and 2 to MaxTrialBatch force that width. The number is a
// plain decimal integer (strconv.Atoi): trailing text, spaces, fractions
// and base prefixes are errors.
func ParseTrialBatch(s string) (int, error) {
	if s == "auto" {
		return TrialBatchAuto, nil
	}
	w, err := strconv.Atoi(s)
	if err != nil || w < 0 || w > MaxTrialBatch {
		return 0, fmt.Errorf("invalid -trialbatch %q (auto, 0 or 1..%d)", s, MaxTrialBatch)
	}
	return w, nil
}

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
	batch  BatchTrialFunc // optional lockstep runner (AddBatch)
	task   func() error

	chunk   int // trials per work unit
	nchunks int
	width   int // lockstep batch width in effect (<= 1: scalar)

	// Schedule-row plan inputs (set by AddSchedule): the schedule name for
	// plan reports, whether the schedule has a lockstep twin, and the
	// resolved radio engine of the schedule's topology, which the planner
	// consults.
	sched        string
	planLockstep bool
	planEngine   radio.Engine
	planDraw     string // draw-contract label (radio.Config.DrawLabel)

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

// BatchTrialFunc runs the len(rnds) consecutive trials starting at trial
// index start in lockstep; rnds[i] is the private stream of trial start+i,
// derived exactly as for TrialFunc. It returns one value per trial in
// trial order, plus either nil or a parallel error slice (errs[i] non-nil
// when trial start+i failed; its value is then ignored, as for a failing
// TrialFunc). A BatchTrialFunc must be trial-for-trial equivalent to the
// row's TrialFunc — batching is a throughput optimisation, never a
// semantic one.
type BatchTrialFunc func(start int, rnds []*rng.Stream) ([]float64, []error)

// AdaptBatch converts a lockstep runner over result type R into a
// BatchTrialFunc: a batch-level error fails every trial in the batch (it
// is a configuration error that would fail each one identically), and
// value maps each per-trial result to the same (value, error) the row's
// scalar trial function produces for it. This is the single definition of
// batch failure semantics — every batch registration (experiments rows,
// throughput measurements) funnels through it, so the scalar and batched
// failure paths cannot drift apart.
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

// AddBatch registers a row of trials that can also run in lockstep
// batches: fn is the scalar trial (used when the sweep's TrialBatch is
// <= 1), batch the equivalent lockstep runner (used for sub-chunks of up
// to TrialBatch trials otherwise). A nil batch makes AddBatch identical
// to Add. Outputs are bit-identical either way; see SweepConfig.TrialBatch.
func (s *Sweep) AddBatch(trials int, seed uint64, fn TrialFunc, batch BatchTrialFunc) *Row {
	row := s.Add(trials, seed, fn)
	row.batch = batch
	return row
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
		if row.batch != nil {
			width, reason := s.planWidth(row)
			if width > 1 {
				row.width = width
				// Batch-aware chunking: round the chunk up to a whole number
				// of batches so a chunk never ends mid-batch (the last chunk
				// of the row may still carry a remainder batch).
				row.chunk = (row.chunk + row.width - 1) / row.width * row.width
			}
			if row.sched != "" {
				recordPlan(benchreport.Plan{
					Schedule: row.sched,
					Engine:   row.planEngine.String(),
					Draw:     row.planDraw,
					Trials:   row.trials,
					Width:    width,
					Reason:   reason,
				})
			}
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
	if row.width > 1 {
		// Lockstep dispatch: the chunk splits into whole batches of the
		// row's width (plus a possible remainder). Single-trial remainders
		// take the scalar function — identical results, no batch setup.
		for start := t.start; start < t.end; start += row.width {
			end := start + row.width
			if end > t.end {
				end = t.end
			}
			if end-start == 1 {
				vals = append(vals, row.runScalarTrial(start))
				continue
			}
			rnds := make([]*rng.Stream, end-start)
			for i := range rnds {
				rnds[i] = rng.NewFrom(row.seed, uint64(row.base+start+i))
			}
			bv, be := row.batch(row.base+start, rnds)
			if len(bv) != end-start || (be != nil && len(be) != end-start) {
				panic(fmt.Sprintf("sim: batch trial function returned %d values/%d errors for %d trials", len(bv), len(be), end-start))
			}
			for i, v := range bv {
				if be != nil && be[i] != nil {
					row.err.record(row.base+start+i, be[i])
					v = 0
				}
				vals = append(vals, v)
			}
		}
	} else {
		for trial := t.start; trial < t.end; trial++ {
			vals = append(vals, row.runScalarTrial(trial))
		}
	}
	totalTrials.Add(int64(t.end - t.start)) // one counter touch per chunk
	row.fold(t.idx, vals)
}

// runScalarTrial executes one scalar trial of the row, recording a failure
// as the scalar dispatch paths always have (value 0, lowest-trial error).
// The trial index is row-local; the rng stream (and the recorded failure
// index) use the global base+trial, so shard rows replay exactly the
// trials of their unsharded twin.
func (row *Row) runScalarTrial(trial int) float64 {
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

// Snapshot returns a copy of the row's accumulator state at this instant:
// the in-order fold of every chunk completed so far. Safe to call
// concurrently with a running sweep; after Done has closed it equals the
// final Acc state.
func (row *Row) Snapshot() stats.Accumulator {
	row.mu.Lock()
	defer row.mu.Unlock()
	return row.acc
}

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
