package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"noisyradio/internal/rng"
)

// batchableTrial builds a (scalar, batch) pair computing the same
// deterministic value per trial off the trial stream, with the batch side
// counting its invocations and observed widths.
func batchableTrial(fail func(trial int) bool) (TrialFunc, BatchTrialFunc, *atomic.Int64) {
	value := func(trial int, r *rng.Stream) (float64, error) {
		if fail != nil && fail(trial) {
			return 0, fmt.Errorf("trial %d failed", trial)
		}
		return float64(trial) + float64(r.Uint64()%1000)/1000, nil
	}
	var batchCalls atomic.Int64
	scalar := func(trial int, r *rng.Stream) (float64, error) { return value(trial, r) }
	batch := func(start int, rnds []*rng.Stream) ([]float64, []error) {
		batchCalls.Add(1)
		vals := make([]float64, len(rnds))
		var errs []error
		for i, r := range rnds {
			v, err := value(start+i, r)
			vals[i] = v
			if err != nil {
				if errs == nil {
					errs = make([]error, len(rnds))
				}
				errs[i] = err
			}
		}
		return vals, errs
	}
	return scalar, batch, &batchCalls
}

// TestSweepBatchOutputsIdentical: every (TrialBatch, ChunkSize, Workers)
// combination must fold exactly the same accumulator state as the scalar
// baseline, including widths that do not divide the trial count.
func TestSweepBatchOutputsIdentical(t *testing.T) {
	const trials = 103 // prime: no width or chunk divides it
	scalar, batch, _ := batchableTrial(nil)

	base := NewSweep(SweepConfig{Workers: 1})
	baseRow := base.AddBatch(trials, 5, scalar, batch)
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	wantSummary := fmt.Sprintf("%v %v %v %v %v %v",
		baseRow.Acc().N(), baseRow.Acc().Mean(), baseRow.Acc().Stddev(),
		baseRow.Acc().Median(), baseRow.Acc().Min(), baseRow.Acc().Max())

	for _, tb := range []int{0, 1, 2, 3, 8, 64, 1000} {
		for _, workers := range []int{1, 4} {
			for _, chunk := range []int{0, 1, 7, 16} {
				name := fmt.Sprintf("tb=%d,w=%d,chunk=%d", tb, workers, chunk)
				sw := NewSweep(SweepConfig{Workers: workers, ChunkSize: chunk, TrialBatch: tb})
				row := sw.AddBatch(trials, 5, scalar, batch)
				if err := sw.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := fmt.Sprintf("%v %v %v %v %v %v",
					row.Acc().N(), row.Acc().Mean(), row.Acc().Stddev(),
					row.Acc().Median(), row.Acc().Min(), row.Acc().Max())
				if got != wantSummary {
					t.Fatalf("%s: accumulator diverged\n got %s\nwant %s", name, got, wantSummary)
				}
			}
		}
	}
}

// TestSweepBatchUsesBatchFunction: with TrialBatch > 1 the lockstep
// function actually runs (and the scalar fallback path stays off except
// for single-trial remainders).
func TestSweepBatchUsesBatchFunction(t *testing.T) {
	scalar, batch, calls := batchableTrial(nil)
	sw := NewSweep(SweepConfig{Workers: 2, TrialBatch: 8})
	sw.AddBatch(64, 3, scalar, batch)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("TrialBatch=8 never invoked the batch trial function")
	}

	// Scalar configuration must never touch the batch function.
	scalar2, batch2, calls2 := batchableTrial(nil)
	sw2 := NewSweep(SweepConfig{Workers: 2})
	sw2.AddBatch(64, 3, scalar2, batch2)
	if err := sw2.Run(); err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("TrialBatch=0 invoked the batch function %d times", calls2.Load())
	}
}

// TestSweepBatchChunkingWholeBatches: the effective chunk size is rounded
// to a multiple of the width, so no chunk ends mid-batch.
func TestSweepBatchChunkingWholeBatches(t *testing.T) {
	scalar, _, _ := batchableTrial(nil)
	var starts []int
	batch := func(start int, rnds []*rng.Stream) ([]float64, []error) {
		starts = append(starts, start)
		if len(rnds) > 5 {
			t.Errorf("batch of %d trials exceeds the width", len(rnds))
		}
		vals := make([]float64, len(rnds))
		for i, r := range rnds {
			vals[i], _ = scalar(start+i, r)
		}
		return vals, nil
	}
	sw := NewSweep(SweepConfig{Workers: 1, ChunkSize: 7, TrialBatch: 5})
	sw.AddBatch(23, 9, scalar, batch)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	// Chunk 7 rounds up to 10 (two width-5 batches); batches start at
	// multiples of 5 with a width-3 remainder at 20.
	want := []int{0, 5, 10, 15, 20}
	if len(starts) != len(want) {
		t.Fatalf("batch starts = %v, want %v", starts, want)
	}
	for i, s := range starts {
		if s != want[i] {
			t.Fatalf("batch starts = %v, want %v", starts, want)
		}
	}
}

// TestSweepBatchErrorsMatchScalar: per-trial failures inside a batch
// report the same lowest-trial error and fold the same zero values as the
// scalar path.
func TestSweepBatchErrorsMatchScalar(t *testing.T) {
	failing := func(trial int) bool { return trial == 11 || trial == 4 }
	scalar, batch, _ := batchableTrial(failing)

	ref := NewSweep(SweepConfig{Workers: 1})
	refRow := ref.AddBatch(20, 7, scalar, batch)
	refErr := ref.Run()
	if refErr == nil {
		t.Fatal("scalar run reported no error")
	}

	sw := NewSweep(SweepConfig{Workers: 3, TrialBatch: 4})
	row := sw.AddBatch(20, 7, scalar, batch)
	err := sw.Run()
	if err == nil {
		t.Fatal("batched run reported no error")
	}
	if err.Error() != refErr.Error() {
		t.Fatalf("error diverged: %q vs scalar %q", err, refErr)
	}
	if row.Acc().N() != refRow.Acc().N() || row.Acc().Mean() != refRow.Acc().Mean() {
		t.Fatal("accumulators diverged between scalar and batched failing runs")
	}
}

// TestSweepBatchNaNSentinel: NaN failed-trial sentinels inside a batch are
// dropped by the accumulator exactly as in scalar mode.
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
	for _, tb := range []int{0, 3, 8} {
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

// TestSweepAddBatchNilBatch: a nil batch function degrades to Add.
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

// TestParseTrialBatch pins the -trialbatch flag syntax both commands
// share: "auto" or a plain decimal 0..MaxTrialBatch.
func TestParseTrialBatch(t *testing.T) {
	for s, want := range map[string]int{"auto": TrialBatchAuto, "0": 0, "16": 16} {
		if got, err := ParseTrialBatch(s); err != nil || got != want {
			t.Errorf("ParseTrialBatch(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"x", "-2", "17", "8abc", "8.5", " 8", "0x10"} {
		if got, err := ParseTrialBatch(s); err == nil {
			t.Errorf("ParseTrialBatch(%q) = %d, want an error", s, got)
		}
	}
}
