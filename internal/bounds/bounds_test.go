package bounds

import (
	"errors"
	"math"
	"testing"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestScalingTermsMonotone(t *testing.T) {
	// Sanity: every bound grows in its leading parameter.
	if DecayRounds(256, 200, 0) <= DecayRounds(256, 100, 0) {
		t.Fatal("DecayRounds not increasing in D")
	}
	if DecayRounds(256, 100, 0.5) <= DecayRounds(256, 100, 0) {
		t.Fatal("DecayRounds not increasing in p")
	}
	if FASTBCFaultlessRounds(256, 200) <= FASTBCFaultlessRounds(256, 100) {
		t.Fatal("FASTBC bound not increasing in D")
	}
	if StarRoutingRounds(1024, 10, 0.5) <= StarRoutingRounds(64, 10, 0.5) {
		t.Fatal("star routing bound not increasing in n")
	}
	if StarCodingRounds(1024, 10, 0.5) >= StarRoutingRounds(1024, 10, 0.5) {
		t.Fatal("coding bound should be below routing bound on a big star")
	}
	if WCTRoutingRounds(4096, 8) <= WCTCodingRounds(4096, 8) {
		t.Fatal("WCT routing bound should exceed coding bound")
	}
	if SingleLinkNonAdaptiveRounds(1024, 0.5) <= SingleLinkAdaptiveRounds(1024, 0.5) {
		t.Fatal("non-adaptive bound should exceed adaptive bound")
	}
}

func TestExactForms(t *testing.T) {
	if got := FASTBCWaveRounds(100, 60, 0); got != 100 {
		t.Fatalf("faultless wave = %v", got)
	}
	want := broadcast.WaveTraversalExpectation(100, 60, 0.3)
	if got := FASTBCWaveRounds(100, 60, 0.3); !approx(got, want, 1e-9) {
		t.Fatalf("wave bound %v != closed form %v", got, want)
	}
	if TransformThroughputFactor(0.4) != 0.6 {
		t.Fatal("transform factor wrong")
	}
	if StarGap(1024) != 10 {
		t.Fatalf("StarGap(1024) = %v", StarGap(1024))
	}
	if WorstCaseGap(4096) != 12 {
		t.Fatalf("WorstCaseGap(4096) = %v", WorstCaseGap(4096))
	}
	if SingleLinkAdaptiveRounds(100, 0.5) != 200 {
		t.Fatal("adaptive single link wrong")
	}
	if StarRoutingRounds(64, 10, 0) != 10 {
		t.Fatal("faultless star routing should be k")
	}
	if SingleLinkNonAdaptiveRounds(64, 0) != 64 {
		t.Fatal("faultless non-adaptive should be k")
	}
}

func TestFitConstant(t *testing.T) {
	c, spread, err := FitConstant([]float64{2, 4, 6}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c, 2, 1e-12) || !approx(spread, 1, 1e-12) {
		t.Fatalf("c=%v spread=%v", c, spread)
	}
	if _, _, err := FitConstant(nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty: %v", err)
	}
	if _, _, err := FitConstant([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrNoData) {
		t.Fatalf("mismatch: %v", err)
	}
	if _, _, err := FitConstant([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero prediction accepted")
	}
	_, spread, err = FitConstant([]float64{2, 6}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(spread, 1.5, 1e-12) {
		t.Fatalf("spread = %v, want 1.5", spread)
	}
}

// TestDecayBoundHolds: the Lemma 6/9 bound's fitted constant is stable
// (spread < 2) across a (D, p) sweep of real executions.
func TestDecayBoundHolds(t *testing.T) {
	var measured, predicted []float64
	for _, n := range []int{64, 128, 256} {
		for _, p := range []float64{0, 0.3, 0.5} {
			cfg := radio.Config{Fault: radio.Faultless}
			if p > 0 {
				cfg = radio.Config{Fault: radio.ReceiverFaults, P: p}
			}
			top := graph.Path(n)
			total := 0
			const trials = 5
			for i := 0; i < trials; i++ {
				res, err := broadcast.MustSchedule("decay").Run(top, cfg, rng.NewFrom(300+uint64(n), uint64(i)), broadcast.ScheduleParams{})
				if err != nil || !res.Success {
					t.Fatalf("n=%d p=%v: %v %+v", n, p, err, res)
				}
				total += res.Rounds
			}
			measured = append(measured, float64(total)/trials)
			predicted = append(predicted, DecayRounds(n, n-1, p))
		}
	}
	c, spread, err := FitConstant(measured, predicted)
	if err != nil {
		t.Fatal(err)
	}
	if spread > 2 {
		t.Fatalf("Decay bound constant drifts: c=%.2f spread=%.2f", c, spread)
	}
}

// TestStarBoundsHold: Lemma 15/16 bounds fit with stable constants over a
// leaves sweep.
func TestStarBoundsHold(t *testing.T) {
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	const k, trials = 24, 5
	var mRout, pRout, mCode, pCode []float64
	routing, coding := broadcast.MustSchedule("star-routing"), broadcast.MustSchedule("star-coding")
	for _, leaves := range []int{32, 128, 512} {
		var ro, co int
		params := broadcast.ScheduleParams{Leaves: leaves, K: k}
		for i := 0; i < trials; i++ {
			r, err := routing.Run(graph.Topology{}, cfg, rng.NewFrom(400+uint64(leaves), uint64(i)), params)
			if err != nil || !r.Success {
				t.Fatalf("routing: %v %+v", err, r)
			}
			c, err := coding.Run(graph.Topology{}, cfg, rng.NewFrom(500+uint64(leaves), uint64(i)), params)
			if err != nil || !c.Success {
				t.Fatalf("coding: %v %+v", err, c)
			}
			ro += r.Rounds
			co += c.Rounds
		}
		mRout = append(mRout, float64(ro)/trials)
		pRout = append(pRout, StarRoutingRounds(leaves, k, cfg.P))
		mCode = append(mCode, float64(co)/trials)
		pCode = append(pCode, StarCodingRounds(leaves, k, cfg.P))
	}
	if _, spread, err := FitConstant(mRout, pRout); err != nil || spread > 1.6 {
		t.Fatalf("star routing bound spread %.2f err %v", spread, err)
	}
	if _, spread, err := FitConstant(mCode, pCode); err != nil || spread > 1.6 {
		t.Fatalf("star coding bound spread %.2f err %v", spread, err)
	}
}
