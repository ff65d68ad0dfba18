package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"noisyradio/internal/rng"
	"noisyradio/internal/stats"
)

// sweepShape is the scheduling matrix the determinism tests sweep: the
// contract is identical output at every point.
var sweepShapes = []SweepConfig{
	{Workers: 1, RowWorkers: 1},
	{Workers: 1, RowWorkers: 1, ChunkSize: 1},
	{Workers: 4, RowWorkers: 1},
	{Workers: 4, RowWorkers: 2, ChunkSize: 3},
	{Workers: 16, RowWorkers: 0, ChunkSize: 1},
	{Workers: 16, RowWorkers: 3, ChunkSize: 7},
	{Workers: 0, RowWorkers: 0},
}

func sweepRowStats(t *testing.T, cfg SweepConfig, rows, trials int) [][6]float64 {
	t.Helper()
	sw := NewSweep(cfg)
	handles := make([]*Row, rows)
	for i := 0; i < rows; i++ {
		handles[i] = sw.Add(trials+i*7, uint64(100+i), variableTrial)
	}
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([][6]float64, rows)
	for i, row := range handles {
		acc := row.Acc()
		out[i] = [6]float64{acc.Mean(), acc.CI95(), acc.Min(), acc.Max(), acc.Median(), acc.P90()}
	}
	return out
}

// TestSweepDeterministicAcrossSchedules is the core sweep contract: every
// statistic of every row — including the order-sensitive P² quantiles —
// is bit-identical at every Workers/RowWorkers/ChunkSize combination.
func TestSweepDeterministicAcrossSchedules(t *testing.T) {
	const rows, trials = 5, 60
	want := sweepRowStats(t, sweepShapes[0], rows, trials)
	for _, cfg := range sweepShapes[1:] {
		got := sweepRowStats(t, cfg, rows, trials)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: row %d stats = %v, want %v (serial values)", cfg, i, got[i], want[i])
			}
		}
	}
}

// TestSweepMatchesRun pins the sweep's streaming statistics to the buffered
// Run path: same trial values, same insertion-order mean.
func TestSweepMatchesRun(t *testing.T) {
	const trials = 123
	vals, err := Run(trials, 4, 42, variableTrial)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSweep(SweepConfig{Workers: 8, ChunkSize: 5})
	row := sw.Add(trials, 42, variableTrial)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := row.Acc().N(), trials; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	if got, want := row.Mean(), stats.Mean(vals); got != want {
		t.Fatalf("Mean = %v, want %v (bitwise)", got, want)
	}
	if got, want := row.CI95(), stats.CI95(vals); !closeEnough(got, want) {
		t.Fatalf("CI95 = %v, want ~%v", got, want)
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-9*(1+scale)
}

// TestSweepErrorIsLowestTrialOfEarliestRow: errors surface
// deterministically — first failing row in registration order, lowest
// failing trial within it — at every schedule.
func TestSweepErrorDeterministic(t *testing.T) {
	for _, cfg := range sweepShapes {
		sw := NewSweep(cfg)
		sw.Add(40, 1, func(trial int, r *rng.Stream) (float64, error) { return 1, nil })
		sw.Add(40, 2, func(trial int, r *rng.Stream) (float64, error) {
			if trial == 11 || trial == 31 {
				return 0, errors.New("boom")
			}
			return 1, nil
		})
		err := sw.Run()
		if err == nil {
			t.Fatalf("%+v: error swallowed", cfg)
		}
		if !strings.Contains(err.Error(), "trial 11") {
			t.Fatalf("%+v: err = %v, want lowest failing trial 11", cfg, err)
		}
	}
}

// TestSweepRowErr: per-row error accessors isolate the failing row.
func TestSweepRowErr(t *testing.T) {
	sw := NewSweep(SweepConfig{Workers: 4})
	good := sw.Add(10, 1, func(trial int, r *rng.Stream) (float64, error) { return 2, nil })
	bad := sw.Add(10, 2, func(trial int, r *rng.Stream) (float64, error) { return 0, fmt.Errorf("always") })
	if err := sw.Run(); err == nil {
		t.Fatal("expected error")
	}
	if err := good.Err(); err != nil {
		t.Fatalf("good row err = %v", err)
	}
	if err := bad.Err(); err == nil {
		t.Fatal("bad row err = nil")
	}
	if got := good.Mean(); got != 2 {
		t.Fatalf("good row mean = %v", got)
	}
}

// TestSweepAllTrialsExecuteDespiteError mirrors the Run guarantee.
func TestSweepAllTrialsExecuteDespiteError(t *testing.T) {
	var count int64
	sw := NewSweep(SweepConfig{Workers: 4, ChunkSize: 3})
	sw.Add(40, 1, func(trial int, r *rng.Stream) (float64, error) {
		atomic.AddInt64(&count, 1)
		if trial == 0 {
			return 0, errors.New("early failure")
		}
		return 0, nil
	})
	if err := sw.Run(); err == nil {
		t.Fatal("expected error")
	}
	if got := atomic.LoadInt64(&count); got != 40 {
		t.Fatalf("executed %d trials, want 40", got)
	}
}

// TestSweepGoTasks: coarse tasks run once each, in parallel, with errors
// propagated in registration order.
func TestSweepGoTasks(t *testing.T) {
	sw := NewSweep(SweepConfig{Workers: 4, RowWorkers: 2})
	results := make([]int, 6)
	for i := 0; i < 6; i++ {
		sw.Go(func() error {
			results[i] = i * i
			return nil
		})
	}
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("task %d result = %d", i, v)
		}
	}
}

func TestSweepGoTaskError(t *testing.T) {
	sw := NewSweep(SweepConfig{Workers: 2})
	sw.Go(func() error { return nil })
	sw.Go(func() error { return errors.New("task failed") })
	err := sw.Run()
	if err == nil || !strings.Contains(err.Error(), "task failed") {
		t.Fatalf("err = %v", err)
	}
}

// TestSweepMixedRowsAndTasks: Add and Go rows coexist on one pool.
func TestSweepMixedRowsAndTasks(t *testing.T) {
	sw := NewSweep(SweepConfig{Workers: 3, RowWorkers: 2})
	var taskRan atomic.Bool
	row := sw.Add(30, 7, func(trial int, r *rng.Stream) (float64, error) { return float64(trial), nil })
	sw.Go(func() error { taskRan.Store(true); return nil })
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if !taskRan.Load() {
		t.Fatal("task skipped")
	}
	if got, want := row.Mean(), 14.5; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestSweepEmptyRuns(t *testing.T) {
	if err := NewSweep(SweepConfig{}).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepRunTwice(t *testing.T) {
	sw := NewSweep(SweepConfig{})
	sw.Go(func() error { return nil })
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestSweepMisusePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	sw := NewSweep(SweepConfig{})
	expectPanic("Add trials=0", func() { sw.Add(0, 1, variableTrial) })
	expectPanic("Add nil fn", func() { sw.Add(1, 1, nil) })
	expectPanic("Go nil task", func() { sw.Go(nil) })
	row := sw.Add(1, 1, variableTrial)
	expectPanic("Row read before Run", func() { row.Acc() })
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	expectPanic("Add after Run", func() { sw.Add(1, 1, variableTrial) })
	expectPanic("Go after Run", func() { sw.Go(func() error { return nil }) })
}

// TestSweepNaNSentinel: NaN trial values are dropped from the moments but
// counted, the contract the throughput layer's success rate relies on.
func TestSweepNaNSentinel(t *testing.T) {
	sw := NewSweep(SweepConfig{Workers: 4, ChunkSize: 2})
	row := sw.Add(30, 1, func(trial int, r *rng.Stream) (float64, error) {
		if trial%3 == 0 {
			return nan(), nil
		}
		return float64(trial), nil
	})
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	acc := row.Acc()
	if acc.N() != 20 || acc.Dropped() != 10 {
		t.Fatalf("N=%d Dropped=%d, want 20/10", acc.N(), acc.Dropped())
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestSweepSlowEarlyChunkNoDeadlockAndBounded: a pathologically slow first
// chunk must not deadlock the bounded folder, and the row's statistics
// stay bit-identical to the serial run. (The backlog cap makes the other
// workers wait once maxPendingChunks chunks are buffered; the worker
// executing the in-order chunk proceeds regardless.)
func TestSweepSlowEarlyChunk(t *testing.T) {
	const trials = 400
	slow := func(trial int, r *rng.Stream) (float64, error) {
		if trial == 0 {
			time.Sleep(150 * time.Millisecond)
		}
		return variableTrial(trial, r)
	}
	serial := NewSweep(SweepConfig{Workers: 1, ChunkSize: 1})
	wantRow := serial.Add(trials, 5, variableTrial)
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}
	want := [2]float64{wantRow.Mean(), wantRow.Acc().Median()}

	sw := NewSweep(SweepConfig{Workers: 8, ChunkSize: 1}) // 400 chunks >> maxPendingChunks
	row := sw.Add(trials, 5, slow)
	doneCh := make(chan error, 1)
	go func() { doneCh <- sw.Run() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep deadlocked with a slow early chunk")
	}
	if got := [2]float64{row.Mean(), row.Acc().Median()}; got != want {
		t.Fatalf("slow-chunk run stats %v, want %v", got, want)
	}
}

// TestAddBatchRunsScalar: the deprecated AddBatch registers its scalar
// trial function exactly as Add does, at any TrialBatch setting, and
// never calls the batch function, even one built by AdaptBatch.
func TestAddBatchRunsScalar(t *testing.T) {
	const trials = 37
	run := func(cfg SweepConfig, register func(sw *Sweep) *Row) [6]float64 {
		sw := NewSweep(cfg)
		row := register(sw)
		if err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		acc := row.Acc()
		return [6]float64{acc.Mean(), acc.CI95(), acc.Min(), acc.Max(), acc.Median(), acc.P90()}
	}
	want := run(SweepConfig{Workers: 1}, func(sw *Sweep) *Row { return sw.Add(trials, 9, variableTrial) })
	batch := AdaptBatch(func(rnds []*rng.Stream) ([]float64, error) {
		t.Error("the batch function ran")
		return make([]float64, len(rnds)), nil
	}, func(v float64) (float64, error) { return v, nil })
	for _, tb := range []int{0, 8, TrialBatchAuto} {
		got := run(SweepConfig{Workers: 3, TrialBatch: tb}, func(sw *Sweep) *Row { return sw.AddBatch(trials, 9, variableTrial, batch) })
		if got != want {
			t.Errorf("TrialBatch=%d: AddBatch row stats = %v, want Add's %v", tb, got, want)
		}
	}
}

// batchableTrial builds a (scalar, batch) pair computing the same
// deterministic value per trial off the trial stream, with the batch side
// counting its invocations.
func batchableTrial(fail func(trial int) bool) (TrialFunc, BatchTrialFunc, *atomic.Int64) {
	value := func(trial int, r *rng.Stream) (float64, error) {
		if fail != nil && fail(trial) {
			return 0, fmt.Errorf("trial %d failed", trial)
		}
		return float64(trial) + float64(r.Uint64()%1000)/1000, nil
	}
	var batchCalls atomic.Int64
	batch := func(start int, rnds []*rng.Stream) ([]float64, []error) {
		batchCalls.Add(1)
		vals := make([]float64, len(rnds))
		errs := make([]error, len(rnds))
		for i, r := range rnds {
			vals[i], errs[i] = value(start+i, r)
		}
		return vals, errs
	}
	return value, batch, &batchCalls
}

// TestSweepBatchOutputsIdentical: an AddBatch row folds exactly the
// accumulator state of the serial baseline at every (TrialBatch,
// ChunkSize, Workers) combination, including chunks that do not divide
// the trial count, and never calls its batch function.
func TestSweepBatchOutputsIdentical(t *testing.T) {
	const trials = 103 // prime: no chunk divides it
	scalar, batch, calls := batchableTrial(nil)
	summary := func(row *Row) string {
		acc := row.Acc()
		return fmt.Sprintf("%v %v %v %v %v %v", acc.N(), acc.Mean(), acc.Stddev(), acc.Median(), acc.Min(), acc.Max())
	}

	base := NewSweep(SweepConfig{Workers: 1})
	baseRow := base.Add(trials, 5, scalar)
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	want := summary(baseRow)

	for _, tb := range []int{TrialBatchAuto, 0, 1, 2, 3, 8, 64, 1000} {
		for _, workers := range []int{1, 4} {
			for _, chunk := range []int{0, 1, 7, 16} {
				name := fmt.Sprintf("tb=%d,w=%d,chunk=%d", tb, workers, chunk)
				sw := NewSweep(SweepConfig{Workers: workers, ChunkSize: chunk, TrialBatch: tb})
				row := sw.AddBatch(trials, 5, scalar, batch)
				if err := sw.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := summary(row); got != want {
					t.Fatalf("%s: accumulator diverged\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("AddBatch rows called the batch function %d times", n)
	}
}

// TestSweepBatchErrorsMatchScalar: failing trials of an AddBatch row on a
// pool with TrialBatch set report the same lowest-trial error and fold
// the same values as the serial Add row.
func TestSweepBatchErrorsMatchScalar(t *testing.T) {
	failing := func(trial int) bool { return trial == 11 || trial == 4 }
	scalar, batch, _ := batchableTrial(failing)

	ref := NewSweep(SweepConfig{Workers: 1})
	refRow := ref.Add(20, 7, scalar)
	refErr := ref.Run()
	if refErr == nil {
		t.Fatal("serial run reported no error")
	}

	sw := NewSweep(SweepConfig{Workers: 3, TrialBatch: 4})
	row := sw.AddBatch(20, 7, scalar, batch)
	err := sw.Run()
	if err == nil {
		t.Fatal("AddBatch run reported no error")
	}
	if err.Error() != refErr.Error() {
		t.Fatalf("error diverged: %q vs serial %q", err, refErr)
	}
	if row.Acc().N() != refRow.Acc().N() || row.Acc().Mean() != refRow.Acc().Mean() {
		t.Fatal("accumulators diverged between the serial and the AddBatch failing runs")
	}
}

// TestSweepBatchNaNSentinel: NaN failed-trial sentinels of an AddBatch
// row are dropped by the accumulator exactly as in an Add row.
func TestSweepBatchNaNSentinel(t *testing.T) {
	value := func(trial int) float64 {
		if trial%5 == 2 {
			return math.NaN()
		}
		return float64(trial)
	}
	scalar := func(trial int, r *rng.Stream) (float64, error) { return value(trial), nil }
	batch := func(start int, rnds []*rng.Stream) ([]float64, []error) {
		vals := make([]float64, len(rnds))
		for i := range rnds {
			vals[i] = value(start + i)
		}
		return vals, nil
	}
	for _, tb := range []int{0, 3, 8, TrialBatchAuto} {
		sw := NewSweep(SweepConfig{Workers: 2, TrialBatch: tb})
		row := sw.AddBatch(31, 1, scalar, batch)
		if err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		if row.Acc().N() != 25 || row.Acc().Dropped() != 6 {
			t.Fatalf("tb=%d: N=%d dropped=%d, want 25/6", tb, row.Acc().N(), row.Acc().Dropped())
		}
	}
}

// TestSweepAddBatchNilBatch: AddBatch accepts a nil batch function.
func TestSweepAddBatchNilBatch(t *testing.T) {
	scalar, _, _ := batchableTrial(nil)
	sw := NewSweep(SweepConfig{Workers: 1, TrialBatch: 8})
	row := sw.AddBatch(10, 2, scalar, nil)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if row.Acc().N() != 10 {
		t.Fatalf("N = %d, want 10", row.Acc().N())
	}
}
