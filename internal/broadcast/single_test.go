package broadcast

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"noisyradio/internal/gbst"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// allAlgos returns the three single-message algorithms' registry entries
// for table tests.
func allAlgos() []*Schedule {
	return []*Schedule{MustSchedule("decay"), MustSchedule("fastbc"), MustSchedule("robust-fastbc")}
}

func allConfigs() []radio.Config {
	return []radio.Config{
		{Fault: radio.Faultless},
		{Fault: radio.SenderFaults, P: 0.3},
		{Fault: radio.ReceiverFaults, P: 0.3},
	}
}

func TestSingleMessageCompletesEverywhere(t *testing.T) {
	r := rng.New(1)
	tops := []graph.Topology{
		graph.Path(1),
		graph.Path(2),
		graph.Path(40),
		graph.Star(30),
		graph.Grid(6, 6),
		graph.Complete(16),
		graph.RandomTree(60, r.Split()),
		graph.GNP(60, 0.1, r.Split()),
		graph.Layered(4, 3),
		graph.Cycle(25),
		graph.Hypercube(5),
		graph.BinaryTree(5),
		graph.Caterpillar(12, 2),
		graph.Lollipop(4, 20),
	}
	for _, a := range allAlgos() {
		for _, cfg := range allConfigs() {
			for _, top := range tops {
				name := a.Name + "/" + cfg.Fault.String() + "/" + top.Name
				t.Run(name, func(t *testing.T) {
					res, err := a.Run(top, cfg, r.Split(), ScheduleParams{})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Success {
						t.Fatalf("broadcast failed: informed %d/%d after %d rounds",
							res.Done, top.G.N(), res.Rounds)
					}
					if res.Rounds <= 0 && top.G.N() > 1 {
						t.Fatalf("suspicious round count %d", res.Rounds)
					}
				})
			}
		}
	}
}

func TestSingleNodeTrivial(t *testing.T) {
	top := graph.Path(1)
	for _, a := range allAlgos() {
		res, err := a.Run(top, radio.Config{Fault: radio.Faultless}, rng.New(1), ScheduleParams{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success || res.Rounds != 0 {
			t.Fatalf("%s: single node should complete in 0 rounds, got %+v", a.Name, res)
		}
	}
}

func TestMaxRoundsCap(t *testing.T) {
	// With a 1-round cap on a long path, no algorithm can finish.
	top := graph.Path(50)
	for _, a := range allAlgos() {
		res, err := a.Run(top, radio.Config{Fault: radio.Faultless}, rng.New(2), ScheduleParams{Options: Options{MaxRounds: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Success {
			t.Fatalf("%s: reported success under 1-round cap", a.Name)
		}
		if res.Rounds != 1 {
			t.Fatalf("%s: Rounds = %d, want 1", a.Name, res.Rounds)
		}
	}
}

func TestBadTopologyRejected(t *testing.T) {
	bad := graph.Topology{G: graph.Path(3).G, Source: 7, Name: "bad"}
	for _, a := range allAlgos() {
		if _, err := a.Run(bad, radio.Config{Fault: radio.Faultless}, rng.New(1), ScheduleParams{}); err == nil {
			t.Fatalf("%s: out-of-range source accepted", a.Name)
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	top := graph.Path(3)
	badCfg := radio.Config{Fault: radio.SenderFaults, P: 1.2}
	for _, a := range allAlgos() {
		if _, err := a.Run(top, badCfg, rng.New(1), ScheduleParams{}); err == nil {
			t.Fatalf("%s: invalid config accepted", a.Name)
		}
	}
}

// disconnectedTopology is two separate edges, so no GBST spans it.
func disconnectedTopology() graph.Topology {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	return graph.Topology{G: b.MustBuild(), Source: 0, Name: "disconnected"}
}

func TestDisconnectedGraphFastBC(t *testing.T) {
	top := disconnectedTopology()
	for _, name := range []string{"fastbc", "robust-fastbc"} {
		if _, err := MustSchedule(name).Run(top, radio.Config{Fault: radio.Faultless}, rng.New(1), ScheduleParams{}); err == nil {
			t.Fatalf("%s accepted a disconnected graph", name)
		}
	}
}

// TestBoundDisconnectedGraphFastBC: a binding whose plan fails keeps
// failing. Every trial of a fastbc binding on a disconnected graph
// returns gbst.ErrDisconnected, not only the one that built the plan.
func TestBoundDisconnectedGraphFastBC(t *testing.T) {
	top := disconnectedTopology()
	for _, eng := range []radio.Engine{radio.Auto, radio.Dense} {
		run := MustSchedule("fastbc").Bind(top, radio.Config{Fault: radio.Faultless, Engine: eng}, ScheduleParams{})
		for i := 0; i < 3; i++ {
			if _, err := run(rng.NewFrom(1, uint64(i))); !errors.Is(err, gbst.ErrDisconnected) {
				t.Fatalf("%v: bound trial %d: err = %v, want gbst.ErrDisconnected", eng, i, err)
			}
		}
	}
}

// meanRounds averages the named schedule's rounds-to-completion on top
// over trials, failing the test on any unsuccessful run.
func meanRounds(t *testing.T, name string, top graph.Topology, cfg radio.Config, trials int, seed uint64) float64 {
	t.Helper()
	s := MustSchedule(name)
	total := 0
	for i := 0; i < trials; i++ {
		res, err := s.Run(top, cfg, rng.NewFrom(seed, uint64(i)), ScheduleParams{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%s trial %d failed (%d rounds, %d informed)", name, i, res.Rounds, res.Done)
		}
		total += res.Rounds
	}
	return float64(total) / float64(trials)
}

// TestLemma8FASTBCDiameterLinear checks the faultless FASTBC shape: doubling
// the path length roughly doubles the rounds (additive polylog aside), and
// FASTBC beats Decay by close to the log n factor on long paths.
func TestLemma8FASTBCDiameterLinear(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	const trials = 5
	fast400 := meanRounds(t, "fastbc", graph.Path(400), cfg, trials, 10)
	fast800 := meanRounds(t, "fastbc", graph.Path(800), cfg, trials, 11)
	growth := fast800 / fast400
	if growth < 1.5 || growth > 2.6 {
		t.Fatalf("FASTBC growth on doubled path = %.2f, want ~2 (linear in D)", growth)
	}
	decay800 := meanRounds(t, "decay", graph.Path(800), cfg, trials, 12)
	if decay800 < 2*fast800 {
		t.Fatalf("Decay (%.0f rounds) should be well above FASTBC (%.0f) on a long faultless path",
			decay800, fast800)
	}
}

// TestLemma10WaveModel validates the exact process Lemma 10 analyses: the
// fast wave's expected traversal time is D·(1 + p/(1-p)·period), i.e. noise
// costs a multiplicative Θ(log n) through the wave period.
func TestLemma10WaveModel(t *testing.T) {
	const trials = 200
	for _, tc := range []struct {
		pathLen, period int
		p               float64
	}{
		{pathLen: 500, period: 6, p: 0},
		{pathLen: 500, period: 60, p: 0.3},
		{pathLen: 500, period: 60, p: 0.5},
		{pathLen: 500, period: 120, p: 0.5},
	} {
		sum := 0.0
		for i := 0; i < trials; i++ {
			rounds, err := WaveTraversalRounds(tc.pathLen, tc.period, tc.p, rng.NewFrom(50, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(rounds)
		}
		mean := sum / trials
		want := WaveTraversalExpectation(tc.pathLen, tc.period, tc.p)
		if mean < 0.85*want || mean > 1.15*want {
			t.Fatalf("case %+v: mean %.0f, closed form %.0f", tc, mean, want)
		}
	}
}

func TestWaveTraversalValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := WaveTraversalRounds(-1, 6, 0.1, r); err == nil {
		t.Fatal("negative path accepted")
	}
	if _, err := WaveTraversalRounds(5, 0, 0.1, r); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := WaveTraversalRounds(5, 6, 1.0, r); err == nil {
		t.Fatal("p=1 accepted")
	}
	got, err := WaveTraversalRounds(0, 6, 0.5, r)
	if err != nil || got != 0 {
		t.Fatalf("empty path: rounds=%d err=%v", got, err)
	}
}

// TestWaveRoundsRejectNaN: NaN fails every comparison, so a range check
// written as p < 0 || p >= 1 lets it through; both wave processes must
// refuse it, as they refuse p = 1.
func TestWaveRoundsRejectNaN(t *testing.T) {
	nan := math.NaN()
	if got, err := WaveTraversalRounds(10, 6, nan, rng.New(1)); err == nil {
		t.Errorf("WaveTraversalRounds accepted p=NaN and returned %d rounds", got)
	}
	if got, err := RepetitionWaveRounds(10, 6, 2, nan, rng.New(1)); err == nil {
		t.Errorf("RepetitionWaveRounds accepted p=NaN and returned %d rounds", got)
	}
}

// TestWaveTraversalMatchesPerEdgeDraws pins WaveTraversalRounds' one
// sampler to the per-edge r.Geometric(1-p) loop it replaced: equal rounds
// and an equal final stream position, p = 0 (no draws) and the tabled
// p = ½ included.
func TestWaveTraversalMatchesPerEdgeDraws(t *testing.T) {
	const pathLen, period = 300, 7
	for _, p := range []float64{0, 0.1, 0.5, 0.9} {
		got, want := rng.New(0x77), rng.New(0x77)
		rounds, err := WaveTraversalRounds(pathLen, period, p, got)
		if err != nil {
			t.Fatal(err)
		}
		wantRounds := 0
		for x := 0; x < pathLen; x++ {
			wantRounds += (want.Geometric(1-p)-1)*period + 1
		}
		if rounds != wantRounds {
			t.Errorf("p=%v: %d rounds, per-edge draws give %d", p, rounds, wantRounds)
		}
		if *got != *want {
			t.Errorf("p=%v: stream left at a different position than the per-edge draws leave it", p)
		}
	}
}

// TestLemma10FASTBCDegradesUnderNoise checks the full-algorithm consequence
// of Lemma 10 on the lollipop topology (GBST rank, and hence wave period,
// Θ(log n)): noise degrades FASTBC by a much larger factor than it degrades
// Robust FASTBC, which is exactly the deterioration the paper's Section 4.1
// fixes. (At feasible n the interleaved Decay rounds put a D·log n ceiling
// on both algorithms' absolute time, so the deterioration *ratio* is the
// scale-robust observable.)
func TestLemma10FASTBCDegradesUnderNoise(t *testing.T) {
	noisy := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	clean := radio.Config{Fault: radio.Faultless}
	const trials = 4
	top := graph.Lollipop(9, 600) // rmax = 10, path length 600
	fastClean := meanRounds(t, "fastbc", top, clean, trials, 20)
	fastNoisy := meanRounds(t, "fastbc", top, noisy, trials, 21)
	robustClean := meanRounds(t, "robust-fastbc", top, clean, trials, 22)
	robustNoisy := meanRounds(t, "robust-fastbc", top, noisy, trials, 23)
	fastRatio := fastNoisy / fastClean
	robustRatio := robustNoisy / robustClean
	if fastRatio < 2*robustRatio {
		t.Fatalf("deterioration: FASTBC %.1fx (%.0f→%.0f) vs Robust %.1fx (%.0f→%.0f); want FASTBC >= 2x worse",
			fastRatio, fastClean, fastNoisy, robustRatio, robustClean, robustNoisy)
	}
}

// TestTheorem11RobustFASTBCLinearUnderNoise: doubling D roughly doubles
// Robust FASTBC's rounds under noise.
func TestTheorem11RobustFASTBCLinearUnderNoise(t *testing.T) {
	cfg := radio.Config{Fault: radio.SenderFaults, P: 0.3}
	const trials = 5
	r600 := meanRounds(t, "robust-fastbc", graph.Path(600), cfg, trials, 30)
	r1200 := meanRounds(t, "robust-fastbc", graph.Path(1200), cfg, trials, 31)
	growth := r1200 / r600
	if growth < 1.4 || growth > 2.8 {
		t.Fatalf("Robust FASTBC noisy growth on doubled path = %.2f, want ~2", growth)
	}
}

// TestLemma9DecayNoiseFactor: Decay's rounds scale like 1/(1-p).
func TestLemma9DecayNoiseFactor(t *testing.T) {
	const trials = 8
	top := graph.Path(200)
	base := meanRounds(t, "decay", top, radio.Config{Fault: radio.Faultless}, trials, 40)
	noisy := meanRounds(t, "decay", top, radio.Config{Fault: radio.ReceiverFaults, P: 0.5}, trials, 41)
	factor := noisy / base
	// 1/(1-0.5) = 2; allow generous tolerance for constant effects.
	if factor < 1.4 || factor > 3.2 {
		t.Fatalf("Decay noise slowdown at p=0.5 = %.2f, want ~2", factor)
	}
}

func TestDecayUnknownNCompletes(t *testing.T) {
	r := rng.New(55)
	tops := []graph.Topology{
		graph.Path(1),
		graph.Path(30),
		graph.Star(20),
		graph.Grid(5, 5),
		graph.GNP(50, 0.1, r.Split()),
	}
	for _, cfg := range allConfigs() {
		for _, top := range tops {
			res, err := MustSchedule("decay-unknown-n").Run(top, cfg, r.Split(), ScheduleParams{})
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Fault, top.Name, err)
			}
			if !res.Success {
				t.Fatalf("%s/%s: %+v", cfg.Fault, top.Name, res)
			}
		}
	}
}

func TestDecayUnknownNOverheadBounded(t *testing.T) {
	// Versus known-n Decay the overhead is at most ~62/⌈log n⌉ plus the
	// transient; on a 200-path (log n = 9) allow a 12x envelope.
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	top := graph.Path(200)
	const trials = 5
	known := meanRounds(t, "decay", top, cfg, trials, 56)
	unknown := meanRounds(t, "decay-unknown-n", top, cfg, trials, 57)
	if unknown > 12*known {
		t.Fatalf("unknown-n decay %.0f rounds vs known-n %.0f: overhead too large", unknown, known)
	}
	if unknown < known/2 {
		t.Fatalf("unknown-n decay %.0f suspiciously below known-n %.0f", unknown, known)
	}
}

func TestDecayUnknownNValidation(t *testing.T) {
	bad := graph.Topology{G: graph.Path(3).G, Source: -1, Name: "bad"}
	if _, err := MustSchedule("decay-unknown-n").Run(bad, radio.Config{Fault: radio.Faultless}, rng.New(1), ScheduleParams{}); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestRobustParamsDefaults(t *testing.T) {
	d := RobustParams{}.withDefaults(1024, radio.Config{Fault: radio.Faultless})
	if d.BlockSize < 1 || d.RoundMult < 4 {
		t.Fatalf("defaults = %+v", d)
	}
	noisy := RobustParams{}.withDefaults(1024, radio.Config{Fault: radio.ReceiverFaults, P: 0.7})
	if noisy.RoundMult < 10 {
		t.Fatalf("RoundMult at p=0.7 = %d, want >= 10", noisy.RoundMult)
	}
	custom := RobustParams{BlockSize: 7, RoundMult: 3}.withDefaults(1024, radio.Config{Fault: radio.Faultless})
	if custom.BlockSize != 7 || custom.RoundMult != 3 {
		t.Fatalf("explicit params overridden: %+v", custom)
	}
}

// TestQuickOnlyInformedNodesBroadcast checks routing legality (Section
// 3.1: a node scheduled to send a message it has not received stays
// silent): replaying the trace, every broadcaster must already be informed
// and every receiver must be adjacent to exactly one broadcaster.
func TestQuickOnlyInformedNodesBroadcast(t *testing.T) {
	f := func(seed uint64, algoPick, modelPick uint8) bool {
		top := graph.GNP(40, 0.08, rng.New(seed))
		algos := allAlgos()
		a := algos[int(algoPick)%len(algos)]
		cfgs := allConfigs()
		cfg := cfgs[int(modelPick)%len(cfgs)]

		informed := map[int32]bool{int32(top.Source): true}
		legal := true
		opts := Options{Trace: func(round int, broadcasters, receivers []int32) {
			for _, b := range broadcasters {
				if !informed[b] {
					legal = false
				}
			}
			for _, r := range receivers {
				informed[r] = true
			}
		}}
		res, err := a.Run(top, cfg, rng.New(seed+1), ScheduleParams{Options: opts})
		if err != nil || !res.Success {
			return false
		}
		return legal && len(informed) == top.G.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	top := graph.GNP(80, 0.06, rng.New(5))
	for _, a := range allAlgos() {
		r1, err := a.Run(top, radio.Config{Fault: radio.ReceiverFaults, P: 0.2}, rng.New(99), ScheduleParams{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := a.Run(top, radio.Config{Fault: radio.ReceiverFaults, P: 0.2}, rng.New(99), ScheduleParams{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Rounds != r2.Rounds || r1.Channel != r2.Channel {
			t.Fatalf("%s: same seed gave different executions: %+v vs %+v", a.Name, r1, r2)
		}
	}
}

// TestDecayRoundZeroAllocs steps a Decay runner on Grid(32×32) under
// receiver faults past warm-up, every node informed, and reads 0
// allocations per round: DecayStep reuses its picks buffer and the
// engine its scratch.
func TestDecayRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	top := graph.Grid(32, 32)
	s, err := newSingleRunner(top.G, top.Source, radio.Config{Fault: radio.ReceiverFaults, P: 0.3}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	sched := decaySchedule(top.G.N())()
	round := 0
	step := func() {
		s.step(sched, round)
		round++
	}
	for range 4000 {
		step()
	}
	if len(s.informedList) != top.G.N() {
		t.Fatalf("warm-up informed %d of %d nodes", len(s.informedList), top.G.N())
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("%v allocations per Decay round, want 0", allocs)
	}
}
