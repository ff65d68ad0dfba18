package broadcast

import (
	"fmt"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// The batch equivalence suite: every registry entry's RunBatch must
// reproduce its Run outcome-for-outcome when handed the same per-trial
// streams — at width 1 (the scalar fallback), at widths that divide
// nothing evenly, and across engines and fault models. This is the
// contract that lets the sweep scheduler swap batch execution in and out
// without moving a single table cell.

// trialStreams derives the per-trial streams exactly as the sweep does.
func trialStreams(seed uint64, start, w int) []*rng.Stream {
	rnds := make([]*rng.Stream, w)
	for i := range rnds {
		rnds[i] = rng.NewFrom(seed, uint64(start+i))
	}
	return rnds
}

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

// requireBatchEqualsScalar runs scalar trials [0, trials) of the named
// registry schedule and its RunBatch over the same streams (in
// sub-batches of width w) and requires identical outcomes.
func requireBatchEqualsScalar(t *testing.T, label, name string, top graph.Topology, cfg radio.Config, p ScheduleParams, trials, w int) {
	t.Helper()
	s := MustSchedule(name)
	want := make([]Outcome, trials)
	for i := range want {
		res, err := s.Run(top, cfg, rng.NewFrom(77, uint64(i)), p)
		if err != nil {
			t.Fatalf("%s: scalar trial %d: %v", label, i, err)
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
				t.Fatalf("%s: trial %d diverged (width %d)\nbatch:  %+v\nscalar: %+v",
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

// Lanes that hit the round cap must report the capped result identically.
func TestSingleMessageBatchCappedLanes(t *testing.T) {
	top := graph.Path(64)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.6}
	capped := ScheduleParams{Options: Options{MaxRounds: 30}} // far too few rounds to finish
	requireBatchEqualsScalar(t, "decay-capped", "decay", top, cfg, capped, 6, 3)
}

func TestStarBatchEqualsScalar(t *testing.T) {
	p := ScheduleParams{Leaves: 24, K: 6}
	for _, cfg := range batchConfigs() {
		label := fmt.Sprintf("%s/%s", cfg.Fault, cfg.Engine)
		requireBatchEqualsScalar(t, "star-routing/"+label, "star-routing", graph.Topology{}, cfg, p, 7, 4)
		requireBatchEqualsScalar(t, "star-coding/"+label, "star-coding", graph.Topology{}, cfg, p, 7, 4)
	}
}

func TestWCTBatchEqualsScalar(t *testing.T) {
	p := ScheduleParams{WCT: graph.NewWCT(graph.DefaultWCTParams(100), rng.New(9)), K: 3}
	for _, cfg := range batchConfigs() {
		label := fmt.Sprintf("%s/%s", cfg.Fault, cfg.Engine)
		requireBatchEqualsScalar(t, "wct-routing/"+label, "wct-routing", graph.Topology{}, cfg, p, 5, 2)
		requireBatchEqualsScalar(t, "wct-coding/"+label, "wct-coding", graph.Topology{}, cfg, p, 5, 2)
	}
}

func TestSingleLinkBatchEqualsScalar(t *testing.T) {
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.4}
	p := ScheduleParams{K: 12}
	for _, name := range []string{"single-link-nonadaptive", "single-link-adaptive", "single-link-coding"} {
		requireBatchEqualsScalar(t, name, name, graph.Topology{}, cfg, p, 9, 4)
	}
}

func TestPipelineBatchEqualsScalar(t *testing.T) {
	for _, cfg := range []radio.Config{
		{Fault: radio.Faultless},
		{Fault: radio.ReceiverFaults, P: 0.3},
		{Fault: radio.SenderFaults, P: 0.3, Engine: radio.Dense},
	} {
		label := fmt.Sprintf("%s/%s", cfg.Fault, cfg.Engine)
		requireBatchEqualsScalar(t, "path-pipeline/"+label, "path-pipeline-routing", graph.Topology{}, cfg, ScheduleParams{PathLen: 20, K: 8}, 5, 3)
		transformed := ScheduleParams{PathLen: 6, K: 10}
		requireBatchEqualsScalar(t, "transformed-routing/"+label, "transformed-path-routing", graph.Topology{}, cfg, transformed, 4, 2)
		requireBatchEqualsScalar(t, "transformed-coding/"+label, "transformed-path-coding", graph.Topology{}, cfg, transformed, 4, 2)
	}
}

func TestPipelinedBatchRoutingBatchEqualsScalar(t *testing.T) {
	tops := []graph.Topology{
		graph.Path(24),
		graph.Grid(5, 6),
	}
	for _, top := range tops {
		for _, cfg := range []radio.Config{
			{Fault: radio.ReceiverFaults, P: 0.3},
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
		{Fault: radio.Faultless},
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
			{Fault: radio.ReceiverFaults, P: 0.3},
			{Fault: radio.SenderFaults, P: 0.3, Engine: radio.Dense},
		} {
			label := fmt.Sprintf("%s/%s/%s", pattern, cfg.Fault, cfg.Engine)
			// The scalar trial draws its messages from the trial stream
			// before broadcasting — the batch path must preserve that
			// per-lane draw order exactly.
			p := ScheduleParams{K: 4, PayloadLen: 6, Pattern: pattern}
			requireBatchEqualsScalar(t, "rlnc/"+label, "rlnc", top, cfg, p, 5, 3)
		}
	}
}

// A single-node topology never executes a round in the scalar RLNC loop
// (the source already decoded everything); the batch path must match that
// exactly — zero rounds, zero channel work.
func TestRLNCBatchSingleNodeMatchesScalar(t *testing.T) {
	b := graph.NewBuilder(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top := graph.Topology{G: g, Source: 0, Name: "single"}
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	requireBatchEqualsScalar(t, "rlnc-single-node", "rlnc", top, cfg, ScheduleParams{K: 2, PayloadLen: 4}, 4, 2)
}
