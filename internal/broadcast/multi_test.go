package broadcast

import (
	"bytes"
	"math"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

func TestRLNCBroadcastDeliversMessages(t *testing.T) {
	r := rng.New(1)
	tops := []graph.Topology{
		graph.Path(10),
		graph.Star(8),
		graph.Grid(4, 4),
		graph.GNP(24, 0.2, r.Split()),
	}
	for _, pattern := range []RLNCPattern{RLNCDecay, RLNCRobustFASTBC} {
		for _, cfg := range allConfigs() {
			for _, top := range tops {
				name := pattern.String() + "/" + cfg.Fault.String() + "/" + top.Name
				t.Run(name, func(t *testing.T) {
					msgs := RandomMessages(6, 8, r)
					res, got, err := RLNCBroadcast(top, cfg, msgs, pattern, r.Split())
					if err != nil {
						t.Fatal(err)
					}
					if !res.Success {
						t.Fatalf("failed: %d/%d decoded after %d rounds", res.Done, top.G.N(), res.Rounds)
					}
					for i := range msgs {
						if !bytes.Equal(got[i], msgs[i]) {
							t.Fatalf("message %d corrupted in transit", i)
						}
					}
				})
			}
		}
	}
}

func TestRLNCBroadcastValidation(t *testing.T) {
	top := graph.Path(3)
	cfg := radio.Config{Fault: radio.Faultless}
	if _, _, err := RLNCBroadcast(top, cfg, nil, RLNCDecay, rng.New(1)); err == nil {
		t.Fatal("no messages accepted")
	}
	if _, _, err := RLNCBroadcast(top, cfg, [][]byte{{}}, RLNCDecay, rng.New(1)); err == nil {
		t.Fatal("empty payload accepted")
	}
	msgs := RandomMessages(2, 4, rng.New(2))
	if _, _, err := RLNCBroadcast(top, cfg, msgs, RLNCPattern(99), rng.New(1)); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestRLNCPatternString(t *testing.T) {
	if RLNCDecay.String() != "rlnc-decay" || RLNCRobustFASTBC.String() != "rlnc-robust-fastbc" {
		t.Fatal("pattern names wrong")
	}
	if RLNCPattern(42).String() == "" {
		t.Fatal("unknown pattern should stringify")
	}
}

// TestLemma12ThroughputScaling: RLNC-Decay rounds grow roughly linearly in
// k (the k·log n term dominates for k >> D), so throughput ~ 1/log n.
func TestLemma12ThroughputScaling(t *testing.T) {
	top := graph.Grid(4, 4)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	rounds := func(k int, seed uint64) float64 {
		total := 0
		const trials = 3
		for i := 0; i < trials; i++ {
			r := rng.NewFrom(seed, uint64(i))
			msgs := RandomMessages(k, 4, r)
			res, _, err := RLNCBroadcast(top, cfg, msgs, RLNCDecay, r)
			if err != nil || !res.Success {
				t.Fatalf("k=%d failed: %v %+v", k, err, res)
			}
			total += res.Rounds
		}
		return float64(total) / trials
	}
	r8 := rounds(8, 60)
	r32 := rounds(32, 61)
	growth := r32 / r8
	if growth < 2 || growth > 8 {
		t.Fatalf("rounds growth for 4x messages = %.2f, want ~4 (linear in k)", growth)
	}
}

func TestStarRoutingCompletes(t *testing.T) {
	for _, cfg := range allConfigs() {
		res, err := MustSchedule("star-routing").Run(graph.Topology{}, cfg, rng.New(3), ScheduleParams{Leaves: 20, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%s: star routing failed: %+v", cfg.Fault, res)
		}
		if res.Rounds < 5 {
			t.Fatalf("%s: %d rounds for 5 messages is impossible", cfg.Fault, res.Rounds)
		}
		if res.Done != 21 {
			t.Fatalf("%s: Done = %d, want 21", cfg.Fault, res.Done)
		}
	}
}

func TestStarCodingCompletes(t *testing.T) {
	for _, cfg := range allConfigs() {
		res, err := MustSchedule("star-coding").Run(graph.Topology{}, cfg, rng.New(4), ScheduleParams{Leaves: 20, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%s: star coding failed: %+v", cfg.Fault, res)
		}
	}
}

func TestStarValidation(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	if _, err := MustSchedule("star-routing").Run(graph.Topology{}, cfg, rng.New(1), ScheduleParams{Leaves: 0, K: 5}); err == nil {
		t.Fatal("zero leaves accepted")
	}
	if _, err := MustSchedule("star-coding").Run(graph.Topology{}, cfg, rng.New(1), ScheduleParams{Leaves: 5, K: 0}); err == nil {
		t.Fatal("zero messages accepted")
	}
}

// TestTheorem17StarGap: with receiver faults at p=1/2, routing pays
// ~log n rounds per message while coding pays ~1/(1-p) = 2: the ratio grows
// with n (Θ(log n) shared topology gap).
func TestTheorem17StarGap(t *testing.T) {
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	const k, trials = 40, 4
	gap := func(leaves int, seed uint64) float64 {
		var routing, coding float64
		p := ScheduleParams{Leaves: leaves, K: k}
		for i := 0; i < trials; i++ {
			r := rng.NewFrom(seed, uint64(i))
			resR, err := MustSchedule("star-routing").Run(graph.Topology{}, cfg, r, p)
			if err != nil || !resR.Success {
				t.Fatalf("routing leaves=%d: %v %+v", leaves, err, resR)
			}
			resC, err := MustSchedule("star-coding").Run(graph.Topology{}, cfg, r, p)
			if err != nil || !resC.Success {
				t.Fatalf("coding leaves=%d: %v %+v", leaves, err, resC)
			}
			routing += float64(resR.Rounds)
			coding += float64(resC.Rounds)
		}
		return routing / coding
	}
	small := gap(16, 70)
	large := gap(1024, 71)
	if large <= small {
		t.Fatalf("star gap did not grow with n: gap(16)=%.2f gap(1024)=%.2f", small, large)
	}
	// At p=1/2, routing ≈ k·log2(n) rounds and coding ≈ 2k + O(log n), so
	// the gap should be in the vicinity of log2(n)/2.
	if large < 2.5 {
		t.Fatalf("gap(1024) = %.2f, expected comfortably above gap(16)=%.2f and > 2.5", large, small)
	}
}

func TestSingleLinkNonAdaptiveRoundsExact(t *testing.T) {
	cfg := radio.Config{Fault: radio.SenderFaults, P: 0.5}
	res, err := MustSchedule("single-link-nonadaptive").Run(graph.Topology{}, cfg, rng.New(5), ScheduleParams{K: 10, Repeats: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 70 {
		t.Fatalf("Rounds = %d, want exactly k·repeats = 70", res.Rounds)
	}
}

func TestSingleLinkNonAdaptiveSuccessRate(t *testing.T) {
	// With the default repetition count the failure probability is ~1/k;
	// over many trials the success rate must be high.
	const k = 64
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	succ := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		// Repeats 0 selects DefaultSingleLinkRepeats(k, p).
		res, err := MustSchedule("single-link-nonadaptive").Run(graph.Topology{}, cfg, rng.NewFrom(80, uint64(i)), ScheduleParams{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if res.Success {
			succ++
		}
	}
	if succ < trials*9/10 {
		t.Fatalf("success rate %d/%d with default repeats", succ, trials)
	}
}

func TestSingleLinkAdaptiveExpectedRounds(t *testing.T) {
	const k = 200
	cfg := radio.Config{Fault: radio.SenderFaults, P: 0.5}
	total := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		res, err := MustSchedule("single-link-adaptive").Run(graph.Topology{}, cfg, rng.NewFrom(81, uint64(i)), ScheduleParams{K: k})
		if err != nil || !res.Success {
			t.Fatalf("trial %d: %v %+v", i, err, res)
		}
		total += res.Rounds
	}
	mean := float64(total) / trials
	want := float64(k) / (1 - cfg.P) // k/(1-p)
	if math.Abs(mean-want) > want*0.15 {
		t.Fatalf("adaptive mean rounds = %.1f, want ~%.1f", mean, want)
	}
}

func TestSingleLinkCodingExpectedRounds(t *testing.T) {
	const k = 200
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	total := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		res, err := MustSchedule("single-link-coding").Run(graph.Topology{}, cfg, rng.NewFrom(82, uint64(i)), ScheduleParams{K: k})
		if err != nil || !res.Success {
			t.Fatalf("trial %d: %v %+v", i, err, res)
		}
		total += res.Rounds
	}
	mean := float64(total) / trials
	want := float64(k) / (1 - cfg.P)
	if math.Abs(mean-want) > want*0.15 {
		t.Fatalf("coding mean rounds = %.1f, want ~%.1f", mean, want)
	}
}

// TestLemma31SingleLinkGap: non-adaptive routing pays Θ(log k) per message;
// coding pays Θ(1). The per-message ratio grows with k.
func TestLemma31SingleLinkGap(t *testing.T) {
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	perMessage := func(k int) float64 {
		return float64(DefaultSingleLinkRepeats(k, cfg.P))
	}
	if perMessage(1024) <= perMessage(16) {
		t.Fatalf("non-adaptive cost per message did not grow: %v vs %v", perMessage(1024), perMessage(16))
	}
	// Adaptive/coding cost per message is flat at ~1/(1-p) = 2.
	res, err := MustSchedule("single-link-coding").Run(graph.Topology{}, cfg, rng.New(83), ScheduleParams{K: 512})
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	codingPerMsg := float64(res.Rounds) / 512
	if codingPerMsg > 3 {
		t.Fatalf("coding per-message cost = %.2f, want ~2", codingPerMsg)
	}
}

func TestSingleLinkValidation(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	for _, tc := range []struct {
		name string
		p    ScheduleParams
	}{
		{"single-link-nonadaptive", ScheduleParams{K: 0, Repeats: 1}},
		{"single-link-nonadaptive", ScheduleParams{K: 1, Repeats: -1}},
		{"single-link-adaptive", ScheduleParams{K: 0}},
		{"single-link-coding", ScheduleParams{K: 0}},
	} {
		if _, err := MustSchedule(tc.name).Run(graph.Topology{}, cfg, rng.New(1), tc.p); err == nil {
			t.Fatalf("%s: %+v accepted", tc.name, tc.p)
		}
	}
}

func TestWCTSchedulesComplete(t *testing.T) {
	r := rng.New(6)
	w := graph.NewWCT(graph.DefaultWCTParams(512), r)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	resR, err := MustSchedule("wct-routing").Run(graph.Topology{}, cfg, r.Split(), ScheduleParams{WCT: w, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resR.Success {
		t.Fatalf("WCT routing failed: %+v", resR)
	}
	resC, err := MustSchedule("wct-coding").Run(graph.Topology{}, cfg, r.Split(), ScheduleParams{WCT: w, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resC.Success {
		t.Fatalf("WCT coding failed: %+v", resC)
	}
	// Coding should already be cheaper at this size.
	if resC.Rounds >= resR.Rounds {
		t.Fatalf("coding (%d rounds) not cheaper than routing (%d rounds)", resC.Rounds, resR.Rounds)
	}
}

func TestWCTValidation(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	if _, err := MustSchedule("wct-routing").Run(graph.Topology{}, cfg, rng.New(1), ScheduleParams{K: 1}); err == nil {
		t.Fatal("nil WCT accepted")
	}
	w := graph.NewWCT(graph.DefaultWCTParams(256), rng.New(1))
	if _, err := MustSchedule("wct-coding").Run(graph.Topology{}, cfg, rng.New(1), ScheduleParams{WCT: w, K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestPathPipelineRoutingFaultless(t *testing.T) {
	const pathLen, k = 30, 60
	res, err := MustSchedule("path-pipeline-routing").Run(graph.Topology{}, radio.Config{Fault: radio.Faultless}, rng.New(7),
		ScheduleParams{PathLen: pathLen, K: k})
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	// Deterministic conveyor: ~3(k + pathLen) rounds, throughput ~1/3.
	want := 3 * (k + pathLen)
	if res.Rounds > want+3 || res.Rounds < want-3*pathLen {
		t.Fatalf("rounds = %d, want ~%d", res.Rounds, want)
	}
	if res.Done != pathLen+1 {
		t.Fatalf("Done = %d, want %d", res.Done, pathLen+1)
	}
}

// TestLemma25RoutingTransformThroughput: the sender-fault pipeline's
// throughput is (1-p)/3, i.e. the faultless throughput times (1-p). The
// regime needs k >> pathLen: for finite k the tandem of geometric hops pays
// a last-passage-percolation fluctuation penalty of (1+sqrt(D/k))².
func TestLemma25RoutingTransformThroughput(t *testing.T) {
	const pathLen, k = 10, 8000
	const p = 0.4
	pipeline, params := MustSchedule("path-pipeline-routing"), ScheduleParams{PathLen: pathLen, K: k}
	base, err := pipeline.Run(graph.Topology{}, radio.Config{Fault: radio.Faultless}, rng.New(8), params)
	if err != nil || !base.Success {
		t.Fatalf("%v %+v", err, base)
	}
	noisy, err := pipeline.Run(graph.Topology{}, radio.Config{Fault: radio.SenderFaults, P: p}, rng.New(9), params)
	if err != nil || !noisy.Success {
		t.Fatalf("%v %+v", err, noisy)
	}
	ratio := noisy.Throughput(k) / base.Throughput(k)
	if ratio < (1-p)*0.85 || ratio > (1-p)*1.05 {
		t.Fatalf("throughput ratio = %.3f, want ~%.2f", ratio, 1-p)
	}
}

func TestTransformedPathRoutingSucceedsAndScales(t *testing.T) {
	// k must be large enough that batches >> pathLen, otherwise the
	// pipeline ramp dominates the steady-state throughput.
	const pathLen, k = 8, 4096
	const p = 0.3
	res, err := MustSchedule("transformed-path-routing").Run(graph.Topology{}, radio.Config{Fault: radio.SenderFaults, P: p},
		rng.New(10), ScheduleParams{PathLen: pathLen, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("transformed routing failed: %+v", res)
	}
	// Throughput should be ~(1-p)/3/(1+eta); allow a wide envelope.
	tp := res.Throughput(k)
	want := (1 - p) / 3 / 1.25
	if tp < want*0.6 || tp > want*1.4 {
		t.Fatalf("throughput = %.3f, want ~%.3f", tp, want)
	}
}

func TestTransformedPathCodingSucceedsAndScales(t *testing.T) {
	const pathLen, k = 8, 4096
	const p = 0.3
	res, err := MustSchedule("transformed-path-coding").Run(graph.Topology{}, radio.Config{Fault: radio.SenderFaults, P: p},
		rng.New(11), ScheduleParams{PathLen: pathLen, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("transformed coding failed: %+v", res)
	}
	tp := res.Throughput(k)
	want := (1 - p) / 3 / 1.25
	if tp < want*0.6 || tp > want*1.4 {
		t.Fatalf("throughput = %.3f, want ~%.3f", tp, want)
	}
}

func TestTransformedFaultlessStillWorks(t *testing.T) {
	p := ScheduleParams{PathLen: 5, K: 64}
	res, err := MustSchedule("transformed-path-routing").Run(graph.Topology{}, radio.Config{Fault: radio.Faultless}, rng.New(12), p)
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	res, err = MustSchedule("transformed-path-coding").Run(graph.Topology{}, radio.Config{Fault: radio.Faultless}, rng.New(13), p)
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
}

func TestTransformValidation(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	if _, err := MustSchedule("path-pipeline-routing").Run(graph.Topology{}, cfg, rng.New(1), ScheduleParams{PathLen: 0, K: 1}); err == nil {
		t.Fatal("pathLen=0 accepted")
	}
	if _, err := MustSchedule("transformed-path-routing").Run(graph.Topology{}, cfg, rng.New(1), ScheduleParams{PathLen: 1, K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := MustSchedule("transformed-path-coding").Run(graph.Topology{}, cfg, rng.New(1), ScheduleParams{PathLen: 0, K: 1}); err == nil {
		t.Fatal("pathLen=0 accepted")
	}
}

func TestSequentialDecayRouting(t *testing.T) {
	top := graph.Grid(4, 4)
	for _, cfg := range allConfigs() {
		res, err := MustSchedule("sequential-decay-routing").Run(top, cfg, rng.New(14), ScheduleParams{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success || res.Done != top.G.N() {
			t.Fatalf("%s: %+v", cfg.Fault, res)
		}
		if res.Rounds < 5 {
			t.Fatalf("%s: %d rounds for 5 sequential broadcasts", cfg.Fault, res.Rounds)
		}
	}
}

func TestSequentialDecayRoutingAggregatesChannel(t *testing.T) {
	top := graph.Path(6)
	cfg := radio.Config{Fault: radio.Faultless}
	res, err := MustSchedule("sequential-decay-routing").Run(top, cfg, rng.New(15), ScheduleParams{K: 3})
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	if res.Channel.Rounds != res.Rounds {
		t.Fatalf("channel rounds %d != total rounds %d", res.Channel.Rounds, res.Rounds)
	}
	if res.Channel.Broadcasts == 0 || res.Channel.Deliveries == 0 {
		t.Fatalf("channel stats not aggregated: %+v", res.Channel)
	}
}

func TestSequentialDecayRoutingValidation(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	if _, err := MustSchedule("sequential-decay-routing").Run(graph.Path(3), cfg, rng.New(1), ScheduleParams{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSequentialDecayRoutingReportsFailure(t *testing.T) {
	res, err := MustSchedule("sequential-decay-routing").Run(graph.Path(40), radio.Config{Fault: radio.Faultless}, rng.New(16),
		ScheduleParams{K: 3, Options: Options{MaxRounds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("reported success under a 1-round cap")
	}
}

func TestOutcomeThroughput(t *testing.T) {
	ok := Outcome{Rounds: 100, Success: true}
	if got := ok.Throughput(25); got != 0.25 {
		t.Fatalf("Throughput = %v", got)
	}
	fail := Outcome{Rounds: 100, Success: false}
	if got := fail.Throughput(25); got != 0 {
		t.Fatalf("failed run Throughput = %v, want 0", got)
	}
	zero := Outcome{Rounds: 0, Success: true}
	if got := zero.Throughput(25); got != 0 {
		t.Fatalf("zero-round Throughput = %v, want 0", got)
	}
}

func TestDefaultSingleLinkRepeats(t *testing.T) {
	if got := DefaultSingleLinkRepeats(1, 0.5); got != 1 {
		t.Fatalf("k=1: %d", got)
	}
	if got := DefaultSingleLinkRepeats(100, 0); got != 1 {
		t.Fatalf("p=0: %d", got)
	}
	r16 := DefaultSingleLinkRepeats(16, 0.5)
	r1024 := DefaultSingleLinkRepeats(1024, 0.5)
	if r1024 <= r16 {
		t.Fatalf("repeats must grow with k: %d vs %d", r16, r1024)
	}
	// k·p^r <= 1/k must hold.
	if float64(1024)*math.Pow(0.5, float64(r1024)) > 1.0/1024 {
		t.Fatalf("repeats %d insufficient for k=1024", r1024)
	}
}
