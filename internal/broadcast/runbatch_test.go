package broadcast

import (
	"fmt"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// The deprecated RunBatch runs its streams through one binding of the
// schedule, so every trial of a batch shares one plan. These tests hold it
// to Run outcome for outcome when handed the same per-trial streams:
// across topologies and fault models on both explicit engines, in batches
// that divide no trial count evenly, for capped trials, and for the
// multi-message entries whose trials draw messages from their own stream.
// A binding that let one trial's state leak into the next diverges here.

// batchConfigs is the fault/engine grid the equivalence tests sweep.
func batchConfigs() []radio.Config {
	var out []radio.Config
	for _, eng := range []radio.Engine{radio.Sparse, radio.Dense} {
		out = append(out,
			radio.Config{Fault: radio.Faultless, Engine: eng},
			radio.Config{Fault: radio.SenderFaults, P: 0.3, Engine: eng},
			radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: eng},
		)
	}
	return out
}

// requireBatchEqualsScalar runs trials [0, trials) of the named registry
// schedule one Run each, and through RunBatch over the same streams in
// batches of w, and requires identical outcomes.
func requireBatchEqualsScalar(t *testing.T, label, name string, top graph.Topology, cfg radio.Config, p ScheduleParams, trials, w int) {
	t.Helper()
	s := MustSchedule(name)
	want := make([]Outcome, trials)
	for i := range want {
		res, err := s.Run(top, cfg, rng.NewFrom(77, uint64(i)), p)
		if err != nil {
			t.Fatalf("%s: trial %d: %v", label, i, err)
		}
		want[i] = res
	}
	for start := 0; start < trials; start += w {
		width := w
		if start+width > trials {
			width = trials - start
		}
		got, err := s.RunBatch(top, cfg, trialStreams(77, start, width), p)
		if err != nil {
			t.Fatalf("%s: batch [%d,%d): %v", label, start, start+width, err)
		}
		if len(got) != width {
			t.Fatalf("%s: batch returned %d results for %d streams", label, len(got), width)
		}
		for i, res := range got {
			if res != want[start+i] {
				t.Fatalf("%s: trial %d diverged (batch of %d)\nbatch: %+v\nRun:   %+v",
					label, start+i, width, res, want[start+i])
			}
		}
	}
}

func TestSingleMessageBatchEqualsScalar(t *testing.T) {
	tops := []graph.Topology{
		graph.Path(48),
		graph.Lollipop(5, 40),
		graph.GNP(60, 0.15, rng.New(4)),
	}
	for _, top := range tops {
		for _, cfg := range batchConfigs() {
			label := fmt.Sprintf("%s/%s/%s", top.Name, cfg.Fault, cfg.Engine)
			requireBatchEqualsScalar(t, "decay/"+label, "decay", top, cfg, ScheduleParams{}, 7, 3)
			requireBatchEqualsScalar(t, "unknown-n/"+label, "decay-unknown-n", top, cfg, ScheduleParams{}, 5, 5)
			requireBatchEqualsScalar(t, "fastbc/"+label, "fastbc", top, cfg, ScheduleParams{}, 6, 4)
			requireBatchEqualsScalar(t, "robust/"+label, "robust-fastbc", top, cfg, ScheduleParams{}, 6, 4)
		}
	}
}

// Trials that hit the round cap must report the capped result identically.
func TestSingleMessageBatchCappedLanes(t *testing.T) {
	top := graph.Path(64)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.6, Engine: radio.Dense}
	capped := ScheduleParams{Options: Options{MaxRounds: 30}} // far too few rounds to finish
	requireBatchEqualsScalar(t, "decay-capped", "decay", top, cfg, capped, 6, 3)
}

func TestPipelinedBatchRoutingBatchEqualsScalar(t *testing.T) {
	tops := []graph.Topology{
		graph.Path(24),
		graph.Grid(5, 6),
	}
	for _, top := range tops {
		for _, cfg := range []radio.Config{
			{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense},
			{Fault: radio.Faultless, Engine: radio.Dense},
		} {
			label := fmt.Sprintf("%s/%s/%s", top.Name, cfg.Fault, cfg.Engine)
			requireBatchEqualsScalar(t, "pipelined-batch/"+label, "pipelined-batch-routing", top, cfg, ScheduleParams{K: 4}, 4, 2)
		}
	}
}

func TestSequentialDecayBatchEqualsScalar(t *testing.T) {
	top := graph.Path(32)
	for _, cfg := range []radio.Config{
		{Fault: radio.Faultless, Engine: radio.Dense},
		{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense},
	} {
		label := fmt.Sprintf("%s/%s", cfg.Fault, cfg.Engine)
		requireBatchEqualsScalar(t, "sequential-decay/"+label, "sequential-decay-routing", top, cfg, ScheduleParams{K: 3}, 5, 3)
		// Capped: some messages cannot finish.
		capped := ScheduleParams{K: 5, Options: Options{MaxRounds: 40}}
		requireBatchEqualsScalar(t, "sequential-decay-capped/"+label, "sequential-decay-routing", top, cfg, capped, 4, 2)
	}
}

func TestRLNCBatchEqualsScalar(t *testing.T) {
	top := graph.GNP(28, 0.2, rng.New(6))
	for _, pattern := range []RLNCPattern{RLNCDecay, RLNCRobustFASTBC} {
		for _, cfg := range []radio.Config{
			{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense},
			{Fault: radio.SenderFaults, P: 0.3, Engine: radio.Dense},
		} {
			label := fmt.Sprintf("%s/%s/%s", pattern, cfg.Fault, cfg.Engine)
			// Each trial draws its messages from its stream before
			// broadcasting, so a batch must hand every trial its own
			// stream in order.
			p := ScheduleParams{K: 4, PayloadLen: 6, Pattern: pattern}
			requireBatchEqualsScalar(t, "rlnc/"+label, "rlnc", top, cfg, p, 5, 3)
		}
	}
}

// A single-node topology never executes an RLNC round (the source already
// decoded everything); a batch must match that exactly: zero rounds, zero
// channel work.
func TestRLNCBatchSingleNodeMatchesScalar(t *testing.T) {
	b := graph.NewBuilder(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top := graph.Topology{G: g, Source: 0, Name: "single"}
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}
	requireBatchEqualsScalar(t, "rlnc-single-node", "rlnc", top, cfg, ScheduleParams{K: 2, PayloadLen: 4}, 4, 2)
}
