package broadcast

// Scale tests: larger instances than the unit tests, verifying the
// algorithms stay correct and the simulator stays fast outside the toy
// regime. Skipped under -short.

import (
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
}

func TestStressLargeGridAllAlgorithms(t *testing.T) {
	skipIfShort(t)
	top := graph.Grid(100, 100) // n = 10^4, D = 198
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	for _, a := range allAlgos() {
		res, err := a.Run(top, cfg, rng.New(101), ScheduleParams{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if !res.Success {
			t.Fatalf("%s: informed %d/%d after %d rounds", a.Name, res.Done, top.G.N(), res.Rounds)
		}
	}
}

func TestStressLongPathRobustFASTBC(t *testing.T) {
	skipIfShort(t)
	top := graph.Lollipop(10, 4000)
	cfg := radio.Config{Fault: radio.SenderFaults, P: 0.5}
	res, err := MustSchedule("robust-fastbc").Run(top, cfg, rng.New(102), ScheduleParams{})
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	// Diameter-linearity sanity at scale: rounds per path edge bounded by a
	// constant comfortably below the Decay baseline's log n ~ 12 per the
	// wave-constant analysis (2c with c = 5/(1-p)+1 = 11 → <= ~30 incl.
	// polylog terms and parking).
	perEdge := float64(res.Rounds) / 4000
	if perEdge > 60 {
		t.Fatalf("rounds per edge %.1f, want O(1) (got %d rounds total)", perEdge, res.Rounds)
	}
}

func TestStressWCTCodingLarge(t *testing.T) {
	skipIfShort(t)
	w := graph.NewWCT(graph.DefaultWCTParams(8192), rng.New(103))
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	res, err := MustSchedule("wct-coding").Run(graph.Topology{}, cfg, rng.New(104), ScheduleParams{WCT: w, K: 32})
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
}

func TestStressRLNCDeepPath(t *testing.T) {
	skipIfShort(t)
	top := graph.Path(64)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.2}
	r := rng.New(105)
	msgs := RandomMessages(48, 8, r)
	res, got, err := RLNCBroadcast(top, cfg, msgs, RLNCDecay, r)
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	for i := range msgs {
		for j := range msgs[i] {
			if got[i][j] != msgs[i][j] {
				t.Fatalf("message %d corrupted at byte %d", i, j)
			}
		}
	}
}

func TestStressPipelinedBatchDeep(t *testing.T) {
	skipIfShort(t)
	top := graph.Layered(60, 8)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	res, err := MustSchedule("pipelined-batch-routing").Run(top, cfg, rng.New(106), ScheduleParams{K: 64})
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
}
