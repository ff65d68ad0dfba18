package broadcast

import (
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

func TestPipelinedBatchRoutingCompletes(t *testing.T) {
	r := rng.New(1)
	tops := []graph.Topology{
		graph.Path(12),
		graph.Layered(5, 4),
		graph.Grid(5, 5),
		graph.Star(10),
		graph.GNP(40, 0.12, r.Split()),
	}
	for _, cfg := range allConfigs() {
		for _, top := range tops {
			name := cfg.Fault.String() + "/" + top.Name
			t.Run(name, func(t *testing.T) {
				res, err := MustSchedule("pipelined-batch-routing").Run(top, cfg, r.Split(), ScheduleParams{K: 6})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Success {
					t.Fatalf("failed: %+v", res)
				}
				if res.Done != top.G.N() {
					t.Fatalf("Done = %d, want %d", res.Done, top.G.N())
				}
			})
		}
	}
}

func TestPipelinedBatchRoutingSingleNode(t *testing.T) {
	res, err := MustSchedule("pipelined-batch-routing").Run(graph.Path(1), radio.Config{Fault: radio.Faultless}, rng.New(2), ScheduleParams{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Rounds != 0 {
		t.Fatalf("single node: %+v", res)
	}
}

func TestPipelinedBatchRoutingValidation(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	if _, err := MustSchedule("pipelined-batch-routing").Run(graph.Path(3), cfg, rng.New(1), ScheduleParams{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	disc := graph.Topology{G: b.MustBuild(), Source: 0, Name: "disconnected"}
	if _, err := MustSchedule("pipelined-batch-routing").Run(disc, cfg, rng.New(1), ScheduleParams{K: 2}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestPipelinedBatchRoutingCap(t *testing.T) {
	res, err := MustSchedule("pipelined-batch-routing").Run(graph.Layered(4, 3),
		radio.Config{Fault: radio.ReceiverFaults, P: 0.3}, rng.New(3), ScheduleParams{K: 8, Options: Options{MaxRounds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success || res.Rounds != 2 {
		t.Fatalf("cap not honoured: %+v", res)
	}
}

// TestLemma21PipelineScaling: on layered networks the per-message cost
// stays near log²n across sizes — the Θ(1/log² n) achievability.
func TestLemma21PipelineScaling(t *testing.T) {
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	const k, trials = 24, 3
	perMsgNorm := func(width int, seed uint64) float64 {
		top := graph.Layered(6, width)
		total := 0
		for i := 0; i < trials; i++ {
			res, err := MustSchedule("pipelined-batch-routing").Run(top, cfg, rng.NewFrom(seed, uint64(i)), ScheduleParams{K: k})
			if err != nil || !res.Success {
				t.Fatalf("width=%d: %v %+v", width, err, res)
			}
			total += res.Rounds
		}
		logn := float64(graph.Log2Ceil(top.G.N()))
		return float64(total) / trials / float64(k) / (logn * logn)
	}
	small := perMsgNorm(8, 90)
	large := perMsgNorm(64, 91)
	// Normalised cost should be size-stable within a small constant factor.
	ratio := large / small
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("normalised per-message cost drifted: %.3f vs %.3f (ratio %.2f)", small, large, ratio)
	}
}

// TestPipelineBeatsSequentialDecay: pipelining amortises the D·log n cost
// across messages; broadcasting k messages one-by-one with Decay costs
// ~k·D·log n while the pipeline costs ~(k+D)·log²n, so for deep graphs and
// moderate k the pipeline wins.
func TestPipelineBeatsSequentialDecay(t *testing.T) {
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	// Pipelining wins once D >> log n and k amortises the fill: sequential
	// Decay pays ~k·D·log n while the pipeline pays ~(k+D)·log²n.
	top := graph.Layered(30, 3)
	const k = 40
	pipe, err := MustSchedule("pipelined-batch-routing").Run(top, cfg, rng.New(4), ScheduleParams{K: k})
	if err != nil || !pipe.Success {
		t.Fatalf("%v %+v", err, pipe)
	}
	seq := 0
	for i := 0; i < k; i++ {
		res, err := MustSchedule("decay").Run(top, cfg, rng.NewFrom(95, uint64(i)), ScheduleParams{})
		if err != nil || !res.Success {
			t.Fatalf("%v %+v", err, res)
		}
		seq += res.Rounds
	}
	if pipe.Rounds >= seq {
		t.Fatalf("pipeline (%d rounds) not better than sequential Decay (%d rounds)", pipe.Rounds, seq)
	}
}

func TestPipelinedBatchRoutingDeterministic(t *testing.T) {
	top := graph.Layered(5, 6)
	cfg := radio.Config{Fault: radio.SenderFaults, P: 0.25}
	a, err := MustSchedule("pipelined-batch-routing").Run(top, cfg, rng.New(7), ScheduleParams{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MustSchedule("pipelined-batch-routing").Run(top, cfg, rng.New(7), ScheduleParams{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Channel != b.Channel {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
