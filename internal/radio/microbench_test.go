package radio

import "testing"

// TestMedianWindowIgnoresOneStalledWindow: a microbench row is the median
// of its timing windows, so one window stretched 80× by a scheduler stall,
// wherever it falls, leaves the row at the steady windows' figure.
func TestMedianWindowIgnoresOneStalledWindow(t *testing.T) {
	for stalled := 0; stalled < microbenchWindows; stalled++ {
		calls := 0
		got := medianWindow(func() float64 {
			defer func() { calls++ }()
			if calls == stalled {
				return 80 * 3500
			}
			return 3500 + float64(calls)
		})
		if calls != microbenchWindows {
			t.Fatalf("stall in window %d: timed %d windows, want %d", stalled, calls, microbenchWindows)
		}
		if got < 3500 || got > 3500+microbenchWindows {
			t.Errorf("stall in window %d: row reads %v ns/round, want a steady window's 3500–%d", stalled, got, 3500+microbenchWindows)
		}
	}
}

// TestMeasureRoundsZeroAllocs: the sparse Grid(32×32) microbench rows
// read exactly zero allocations per round under every fault model, the
// figure TestStepSetZeroAllocs measures for those rounds.
func TestMeasureRoundsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tx := microbenchTx(1024, 512, 16)
	for _, fault := range []FaultModel{Faultless, SenderFaults, ReceiverFaults} {
		cfg := Config{Fault: fault, Engine: Sparse}
		if fault != Faultless {
			cfg.P = 0.3
		}
		if _, allocs := measureRounds(gridTopology(1024), cfg, tx); allocs != 0 {
			t.Errorf("stepset/sparse/grid/%v/n=1024 reads %v allocs/round, want 0", fault, allocs)
		}
	}
}

// allocSink keeps TestCountAllocsTakesTheLeastPass's allocations on the
// heap.
var allocSink *[64]byte

// TestCountAllocsTakesTheLeastPass: countAllocs reads the pass with the
// fewest allocations, so allocations that land in one pass only (a stray
// goroutine's) read 0, while allocations that recur in every call read
// one per call.
func TestCountAllocsTakesTheLeastPass(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 32
	calls := 0
	firstPassOnly := func() {
		if calls < n {
			allocSink = new([64]byte)
		}
		calls++
	}
	if got := countAllocs(n, firstPassOnly); got != 0 {
		t.Errorf("allocating during the first pass only reads %v allocs/round, want 0", got)
	}
	if calls != allocPasses*n {
		t.Errorf("countAllocs ran round %d times, want %d", calls, allocPasses*n)
	}
	everyCall := func() { allocSink = new([64]byte) }
	if got := countAllocs(n, everyCall); got != 1 {
		t.Errorf("allocating on every call reads %v allocs/round, want 1", got)
	}
}
