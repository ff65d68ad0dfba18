package radio

import (
	"math"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// faultCountsPerRound runs `rounds` all-broadcast rounds on Complete(n)
// under the given contract and returns the sender-fault count of each
// round — the per-round marginal the draw contract must preserve.
func faultCountsPerRound(n int, p float64, dc DrawContract, seed uint64, rounds int) []int {
	return faultCountsPerRoundCfg(Config{Fault: SenderFaults, P: p, Draw: dc}, n, seed, rounds)
}

func faultCountsPerRoundCfg(cfg Config, n int, seed uint64, rounds int) []int {
	top := graph.Complete(n)
	net := MustNew[int32](top.G, cfg, rng.New(seed))
	tx := bitset.New(n)
	for v := 0; v < n; v++ {
		tx.Set(v)
	}
	payload := make([]int32, n)
	counts := make([]int, rounds)
	var prev int64
	for r := 0; r < rounds; r++ {
		net.StepSet(tx, payload, nil, nil)
		now := net.Stats().SenderFaults
		counts[r] = int(now - prev)
		prev = now
	}
	return counts
}

func meanVar(counts []int) (mean, variance float64) {
	for _, c := range counts {
		mean += float64(c)
	}
	mean /= float64(len(counts))
	for _, c := range counts {
		d := float64(c) - mean
		variance += d * d
	}
	variance /= float64(len(counts) - 1)
	return mean, variance
}

// binCounts histograms fault counts into equal-width bins spanning
// np ± 4·sd, with open-ended tail bins, for the two-sample chi-square.
func binCounts(counts []int, np, sd float64, bins int) []float64 {
	lo := np - 4*sd
	width := 8 * sd / float64(bins)
	h := make([]float64, bins+2)
	for _, c := range counts {
		i := int(math.Floor((float64(c) - lo) / width))
		switch {
		case i < 0:
			h[0]++
		case i >= bins:
			h[bins+1]++
		default:
			h[i+1]++
		}
	}
	return h
}

// TestDrawV2BinomialFaultCounts is the statistical sanity check behind the
// contract equivalence proofs: per-round reset means a v2 round's fault
// count on Complete(4096) is exactly Binomial(4096, p) — the same marginal
// v1 draws site by site. Deterministic (fixed seeds): the per-round counts
// must match the Binomial mean and variance, and a two-sample chi-square
// against the v1 empirical distribution must stay below a generous
// critical value. A v2 implementation that leaked skip state across rounds
// (no endRound reset) or mis-handled the last site of a round would shift
// the mean or fatten the variance and fail here even though the
// bit-identity tests — which compare v2 only against itself — would pass.
func TestDrawV2BinomialFaultCounts(t *testing.T) {
	const (
		n      = 4096
		rounds = 600
	)
	for _, p := range []float64{0.01, 0.1} {
		np := float64(n) * p
		sd := math.Sqrt(np * (1 - p))

		v1 := faultCountsPerRound(n, p, DrawV1, 0xb10a, rounds)
		v2 := faultCountsPerRound(n, p, DrawV2, 0xb10b, rounds)

		for name, counts := range map[string][]int{"v1": v1, "v2": v2} {
			mean, variance := meanVar(counts)
			if tol := 4 * sd / math.Sqrt(rounds); math.Abs(mean-np) > tol {
				t.Errorf("p=%v %s: mean fault count %.2f outside %.2f ± %.2f", p, name, mean, np, tol)
			}
			if wantVar := np * (1 - p); variance < 0.7*wantVar || variance > 1.3*wantVar {
				t.Errorf("p=%v %s: variance %.1f not within 30%% of Binomial %.1f", p, name, variance, wantVar)
			}
		}

		// Two-sample chi-square v2-vs-v1 over binned histograms:
		// Σ (a_i - b_i)² / (a_i + b_i), df ≈ occupied bins − 1. With ~18
		// bins the 99.9th percentile sits near 43; 80 leaves headroom for
		// the fixed seeds while still catching a shifted or skewed v2.
		const bins = 16
		a := binCounts(v1, np, sd, bins)
		b := binCounts(v2, np, sd, bins)
		var chi2 float64
		for i := range a {
			if s := a[i] + b[i]; s > 0 {
				d := a[i] - b[i]
				chi2 += d * d / s
			}
		}
		if chi2 > 80 {
			t.Errorf("p=%v: chi-square v2-vs-v1 = %.1f, distributions diverged", p, chi2)
		}
	}
}

// TestDrawV3StationaryMarginal pins the headline property of the
// Gilbert–Elliott contract: bursts reshape the *correlation* of faults, not
// their rate. With the default shape (Len=8, BadP=0.5) the stationary
// per-site fault probability must still be exactly Config.P, so per-round
// fault counts on Complete(4096) keep the Binomial mean — while their
// variance must be well ABOVE Binomial, because sites inside one bad phase
// fault together. The two-state chain has per-site flip probabilities
// b2g = 1/Len and g2b = πB/(Len·(1−πB)); summing the geometric covariance
// tail gives a variance inflation of roughly 6–8× at these parameters, so
// the 2× floor is a robust burstiness signature, not a tuned constant. A
// v3 implementation that forgot the stationarity init draw, mixed up the
// phase coins, or leaked the countdown across rounds would shift the mean;
// one that drew a fresh bad flag per site would collapse the variance back
// to Binomial. A two-sample chi-square between two independently seeded v3
// runs guards the distribution shape itself against seed-specific flukes.
func TestDrawV3StationaryMarginal(t *testing.T) {
	const (
		n      = 4096
		rounds = 600
	)
	for _, p := range []float64{0.01, 0.1} {
		np := float64(n) * p
		binomVar := np * (1 - p)
		cfg := Config{Fault: SenderFaults, P: p, Draw: DrawV3}

		a := faultCountsPerRoundCfg(cfg, n, 0xd3a, rounds)
		b := faultCountsPerRoundCfg(cfg, n, 0xd3b, rounds)

		for name, counts := range map[string][]int{"seedA": a, "seedB": b} {
			mean, variance := meanVar(counts)
			// The mean's own standard error uses the *empirical* variance:
			// bursts fatten it far beyond Binomial, and that is exactly the
			// spread the mean estimate inherits.
			if tol := 4 * math.Sqrt(variance/rounds); math.Abs(mean-np) > tol {
				t.Errorf("p=%v %s: v3 mean fault count %.2f outside %.2f ± %.2f", p, name, mean, np, tol)
			}
			if variance < 2*binomVar {
				t.Errorf("p=%v %s: v3 variance %.1f not above 2x Binomial %.1f — bursts missing", p, name, variance, binomVar)
			}
			if variance > 20*binomVar {
				t.Errorf("p=%v %s: v3 variance %.1f above 20x Binomial %.1f — correlation runaway", p, name, variance, binomVar)
			}
		}

		// Two-sample chi-square seedA-vs-seedB, binned by seedA's own
		// empirical sd so the fat-tailed counts spread over the bins.
		_, varA := meanVar(a)
		sd := math.Sqrt(varA)
		const bins = 16
		ha := binCounts(a, np, sd, bins)
		hb := binCounts(b, np, sd, bins)
		var chi2 float64
		for i := range ha {
			if s := ha[i] + hb[i]; s > 0 {
				d := ha[i] - hb[i]
				chi2 += d * d / s
			}
		}
		if chi2 > 80 {
			t.Errorf("p=%v: chi-square v3 seedA-vs-seedB = %.1f, distributions diverged", p, chi2)
		}
	}
}

// TestDrawV3BurstLengthsGeometric checks the burst-shape half of the v3
// contract. With BadP = 1 every bad-phase site faults and every good-phase
// site doesn't, so maximal runs of consecutive faults along one long round
// ARE the bad sojourns, which the contract defines as Geometric(1/Len)
// (mean Len). Good phases have length >= 1, so runs never merge. The walk
// drives drawState.site directly — below the engines — over a single round
// (no endRound), collects complete runs (the possibly-censored final run is
// dropped), and checks the run-length mean and a chi-square against the
// geometric pmf. This is the test that distinguishes a genuine two-state
// process from any per-site scheme that merely matches the marginal.
func TestDrawV3BurstLengthsGeometric(t *testing.T) {
	const (
		sites = 300000
		p     = 0.2 // stationary bad fraction; BadP = 1 makes it the fault rate
	)
	top := graph.Complete(8)
	for _, burstLen := range []float64{4, 16} {
		cfg := Config{
			Fault: SenderFaults,
			P:     p,
			Draw:  DrawV3,
			Burst: BurstParams{Len: burstLen, BadP: 1},
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Len=%v: %v", burstLen, err)
		}
		d := makeDrawState(cfg, top.G)
		r := rng.New(0xb1757 + uint64(burstLen))

		var runs []int
		run := 0
		for v := 0; v < sites; v++ {
			if d.site(int32(v%8), r) {
				run++
			} else if run > 0 {
				runs = append(runs, run)
				run = 0
			}
		}
		// The final run (if any) is censored by the end of the walk: drop it.

		nRuns := float64(len(runs))
		if wantRuns := sites * p / burstLen; nRuns < 0.8*wantRuns || nRuns > 1.2*wantRuns {
			t.Fatalf("Len=%v: %d runs, expected about %.0f", burstLen, len(runs), wantRuns)
		}
		var sum float64
		for _, l := range runs {
			sum += float64(l)
		}
		mean := sum / nRuns
		// sd of Geometric(1/Len) is Len·sqrt(1−1/Len) < Len.
		if tol := 4 * burstLen / math.Sqrt(nRuns); math.Abs(mean-burstLen) > tol {
			t.Errorf("Len=%v: mean run length %.2f outside %.2f ± %.2f", burstLen, mean, burstLen, tol)
		}

		// Chi-square against the geometric pmf over k = 1..K with a pooled
		// tail; K keeps every expected bin count comfortably above 15.
		K := int(2.5 * burstLen)
		obs := make([]float64, K+1)
		for _, l := range runs {
			if l > K {
				obs[K]++
			} else {
				obs[l-1]++
			}
		}
		q := 1 / burstLen
		var chi2, tailP float64
		tailP = 1
		for k := 1; k <= K; k++ {
			pmf := q * math.Pow(1-q, float64(k-1))
			tailP -= pmf
			exp := nRuns * pmf
			dlt := obs[k-1] - exp
			chi2 += dlt * dlt / exp
		}
		if exp := nRuns * tailP; exp > 0 {
			dlt := obs[K] - exp
			chi2 += dlt * dlt / exp
		}
		// df ≈ K; the χ² 99.99th percentile is ~52 at df=10 and ~90 at
		// df=40, so 110 is generous for both lengths under fixed seeds.
		if chi2 > 110 {
			t.Errorf("Len=%v: chi-square vs Geometric(1/Len) = %.1f over %d bins", burstLen, chi2, K+1)
		}
	}
}

// TestDrawV4JamFaultCounts checks the region-jamming composition on
// Complete(4096) with every node broadcasting: a jammed round faults the
// whole id-window (2R+1 sites, deterministically) plus an independent
// Binomial over the rest, a quiet round is plain Binomial(n, p). Two
// separable signatures: the fraction of rounds with count >= 2R+1 must be
// ~q (a quiet Binomial(4096, 0.01) round reaching 101 is astronomically
// unlikely), and the overall mean must match q·(2R+1)·(1−p) + n·p. An
// implementation that re-drew coins under the jam, mis-sized the window,
// or jammed every round would miss one of the two.
func TestDrawV4JamFaultCounts(t *testing.T) {
	const (
		n      = 4096
		rounds = 600
		p      = 0.01
		q      = 0.3
		radius = 50
	)
	cfg := Config{
		Fault: SenderFaults,
		P:     p,
		Draw:  DrawV4,
		Jam:   JamParams{Q: q, Radius: radius},
	}
	counts := faultCountsPerRoundCfg(cfg, n, 0x4a44, rounds)

	window := 2*radius + 1
	jammed := 0
	for _, c := range counts {
		if c >= window {
			jammed++
		}
	}
	frac := float64(jammed) / rounds
	if tol := 4 * math.Sqrt(q*(1-q)/rounds); math.Abs(frac-q) > tol {
		t.Errorf("jammed-round fraction %.3f outside %.3f ± %.3f", frac, q, tol)
	}

	mean, variance := meanVar(counts)
	want := q*float64(window)*(1-p) + float64(n)*p
	if tol := 4 * math.Sqrt(variance/rounds); math.Abs(mean-want) > tol {
		t.Errorf("v4 mean fault count %.2f outside %.2f ± %.2f", mean, want, tol)
	}
}
