package radio

import (
	"fmt"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

func TestDrawContractString(t *testing.T) {
	if DrawV1.String() != "v1" || DrawV2.String() != "v2" || DrawV3.String() != "v3" || DrawV4.String() != "v4" {
		t.Fatal("DrawContract String names wrong")
	}
	if DrawContract(99).String() == "" {
		t.Fatal("unknown draw contract should still stringify")
	}
}

// TestDrawContractRoundTrip drives every registered contract through the
// descriptor table's derived surfaces: String/Parse must round-trip, and
// each contract must name its own golden file. Registration is a single
// table row, so this is the whole consistency proof.
func TestDrawContractRoundTrip(t *testing.T) {
	seenName := map[string]bool{}
	seenGolden := map[string]bool{}
	for _, dc := range DrawContracts() {
		name := dc.String()
		if seenName[name] {
			t.Fatalf("duplicate contract name %q", name)
		}
		seenName[name] = true
		got, err := ParseDrawContract(name)
		if err != nil {
			t.Fatalf("ParseDrawContract(%q): %v", name, err)
		}
		if got != dc {
			t.Fatalf("ParseDrawContract(%q) = %v, want %v", name, got, dc)
		}
		golden := dc.GoldenFile()
		if golden == "" {
			t.Fatalf("contract %v has no golden file", dc)
		}
		if seenGolden[golden] {
			t.Fatalf("contract %v reuses golden file %q", dc, golden)
		}
		seenGolden[golden] = true
	}
	if DrawContract(99).GoldenFile() != "" {
		t.Fatal("unknown contract should have no golden file")
	}
}

func TestParseDrawContract(t *testing.T) {
	for _, tt := range []struct {
		in      string
		want    DrawContract
		wantErr bool
	}{
		{in: "v1", want: DrawV1},
		{in: "", want: DrawV1},
		{in: "v2", want: DrawV2},
		{in: "v3", want: DrawV3},
		{in: "v4", want: DrawV4},
		{in: "v5", wantErr: true},
		{in: "geometric", wantErr: true},
	} {
		got, err := ParseDrawContract(tt.in)
		if (err != nil) != tt.wantErr {
			t.Fatalf("ParseDrawContract(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
		if err == nil && got != tt.want {
			t.Fatalf("ParseDrawContract(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestValidateRejectsUnknownDrawContract(t *testing.T) {
	cfg := Config{Fault: Faultless, Draw: DrawContract(7)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown draw contract accepted")
	}
}

// TestValidateBurstJamParams pins the correlated-contract validation
// rules: v3 needs P < BadP and a reachable marginal, v4 needs a sane jam
// probability and radius, and the zero-value parameter structs are valid
// out of the box.
func TestValidateBurstJamParams(t *testing.T) {
	for _, tt := range []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "v3 defaults", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV3}},
		{name: "v3 p at badp", cfg: Config{Fault: SenderFaults, P: 0.5, Draw: DrawV3}, wantErr: true},
		{name: "v3 p above badp", cfg: Config{Fault: SenderFaults, P: 0.6, Draw: DrawV3}, wantErr: true},
		{name: "v3 raised badp", cfg: Config{Fault: SenderFaults, P: 0.5, Draw: DrawV3, Burst: BurstParams{BadP: 0.9}}},
		{name: "v3 marginal unreachable", cfg: Config{Fault: SenderFaults, P: 0.45, Draw: DrawV3, Burst: BurstParams{Len: 1}}, wantErr: true},
		{name: "v3 short bursts", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV3, Burst: BurstParams{Len: 1}}},
		{name: "v3 len below one", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV3, Burst: BurstParams{Len: 0.5}}, wantErr: true},
		{name: "v3 negative len", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV3, Burst: BurstParams{Len: -2}}, wantErr: true},
		{name: "v3 badp above one", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV3, Burst: BurstParams{BadP: 1.5}}, wantErr: true},
		{name: "v3 badp one", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV3, Burst: BurstParams{BadP: 1}}},
		{name: "v3 degenerate p zero", cfg: Config{Fault: SenderFaults, P: 0, Draw: DrawV3}},
		{name: "v3 faultless ignores params", cfg: Config{Fault: Faultless, Draw: DrawV3, Burst: BurstParams{Len: -2}}},
		{name: "v4 defaults", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV4}},
		{name: "v4 ball", cfg: Config{Fault: ReceiverFaults, P: 0.1, Draw: DrawV4, Jam: JamParams{Ball: true}}},
		{name: "v4 q above one", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV4, Jam: JamParams{Q: 1.5}}, wantErr: true},
		{name: "v4 negative q", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV4, Jam: JamParams{Q: -0.1}}, wantErr: true},
		{name: "v4 negative radius", cfg: Config{Fault: SenderFaults, P: 0.1, Draw: DrawV4, Jam: JamParams{Radius: -1}}, wantErr: true},
		{name: "v4 p zero still jams", cfg: Config{Fault: SenderFaults, P: 0, Draw: DrawV4}},
	} {
		err := tt.cfg.Validate()
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr %v", tt.name, err, tt.wantErr)
		}
	}
}

// drawSiteWalk is the reference implementation of one round of the
// contract: visit every site of the round in order through drawState.site
// — the per-site countdown every receiver site and the v1, v4 and traced
// sender sites run — and return the faulty subset. The bulk tests and the fuzz target
// compare the optimized marking paths against this.
func drawSiteWalk(d *drawState, coin rng.Bernoulli, r *rng.Stream, sites []int) map[int]bool {
	faulty := map[int]bool{}
	for _, v := range sites {
		if d.site(int32(v), coin, r) {
			faulty[v] = true
		}
	}
	d.endRound()
	return faulty
}

// checkBulkMatchesPerSite drives rounds of random site sets through the
// scalar marking path (markBroadcasters on a trace-less sender-fault
// network — the dense/implicit engines' path, bulk where the contract
// permits) and through the per-site reference walk on an
// identically-seeded stream, requiring the same fault sets, the same
// stats and the same stream positions after every round. Shared by the
// deterministic grid test and FuzzDrawContract. cfg.Fault must be
// SenderFaults with a uniform P.
func checkBulkMatchesPerSite(t *testing.T, cfg Config, n int, seed uint64, rounds int, pick func(r *rng.Stream, v int) bool) {
	t.Helper()
	coin := rng.NewBernoulli(cfg.P)
	refStream := rng.New(seed)
	netStream := rng.New(seed)
	top := graph.ImplicitComplete(n)
	refDraw := makeDrawState(cfg, top.G)
	net := MustNew[int32](top.G, cfg, netStream)

	siteGen := rng.New(seed + 0x5173)
	tx := bitset.New(n)
	var wantFaults int64
	for round := 0; round < rounds; round++ {
		tx.Reset()
		sites := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if pick(siteGen, v) {
				tx.Set(v)
				sites = append(sites, v)
			}
		}
		want := drawSiteWalk(&refDraw, coin, refStream, sites)
		wantFaults += int64(len(want))

		txw := tx.Words()
		lo, hi := tx.NonzeroRange()
		net.markBroadcasters(txw, lo, hi)
		for _, v := range sites {
			if net.senderNoise[v] != want[v] {
				t.Fatalf("%v p=%v round %d: site %d noisy=%v, reference=%v", cfg.Draw, cfg.P, round, v, net.senderNoise[v], want[v])
			}
		}
		if got := net.stats.SenderFaults; got != wantFaults {
			t.Fatalf("%v p=%v round %d: SenderFaults=%d, reference=%d", cfg.Draw, cfg.P, round, got, wantFaults)
		}
		net.finishRound(tx)
		if *refStream != *netStream {
			t.Fatalf("%v p=%v round %d: stream states diverged after the round", cfg.Draw, cfg.P, round)
		}
		// finishRound must leave no residue for the next round.
		for _, v := range sites {
			if net.senderNoise[v] {
				t.Fatalf("%v p=%v round %d: senderNoise[%d] not cleared", cfg.Draw, cfg.P, round, v)
			}
		}
	}
}

// TestDrawBulkMatchesPerSite pins the optimized marking paths to the
// per-site reference over a p grid spanning dense faults, the
// sparse-fault regime and spans that cross many rounds: the v2 skip jump
// and the v3 phase-skipping walk against their countdown twins, and the
// v1/v4 rows through the same harness (their sender marking stays
// per-site by construction), doubling as a check of the harness itself.
func TestDrawBulkMatchesPerSite(t *testing.T) {
	cases := []Config{}
	for _, p := range []float64{0.9, 0.5, 0.1, 0.02, 0.001} {
		cases = append(cases,
			Config{Fault: SenderFaults, P: p, Draw: DrawV1},
			Config{Fault: SenderFaults, P: p, Draw: DrawV2},
			Config{Fault: SenderFaults, P: p, Draw: DrawV4},
			Config{Fault: SenderFaults, P: p, Draw: DrawV4, Jam: JamParams{Q: 0.4, Radius: 11}},
			Config{Fault: SenderFaults, P: p, Draw: DrawV4, Jam: JamParams{Q: 0.4, Ball: true}},
		)
	}
	for _, p := range []float64{0.4, 0.1, 0.02, 0.001} {
		// v3 needs P < Burst.BadP (0.5 by default).
		cases = append(cases,
			Config{Fault: SenderFaults, P: p, Draw: DrawV3},
			Config{Fault: SenderFaults, P: p, Draw: DrawV3, Burst: BurstParams{Len: 1, BadP: 0.9}},
			Config{Fault: SenderFaults, P: p, Draw: DrawV3, Burst: BurstParams{Len: 40}},
		)
	}
	for _, cfg := range cases {
		for _, density := range []float64{1, 0.5, 0.05} {
			d := density
			checkBulkMatchesPerSite(t, cfg, 300, 0xd0c0+uint64(d*100), 40, func(r *rng.Stream, v int) bool {
				return r.Bool(d)
			})
		}
	}
}

// TestDrawDegenerateFallsBackToV1 pins the degenerate DrawV2/DrawV3
// cases — p = 0 and PerNodeP — to v1 bit for bit: same executions, same
// stream positions, on the same seeds. (These cases cannot skip or
// derive a stationary phase process, so the contracts define them as the
// v1 sequence. DrawV4 deliberately has no such fallback: jamming is
// defined for every fault configuration, PerNodeP and p = 0 included.)
func TestDrawDegenerateFallsBackToV1(t *testing.T) {
	perNode := make([]float64, 80)
	for v := range perNode {
		perNode[v] = float64(v%7) / 10
	}
	cfgs := []Config{
		{Fault: SenderFaults, P: 0},
		{Fault: ReceiverFaults, P: 0},
		{Fault: SenderFaults, P: 0.4, PerNodeP: perNode},
		{Fault: ReceiverFaults, P: 0.4, PerNodeP: perNode},
	}
	top := graph.GNP(80, 0.15, rng.New(12))
	for _, cfg := range cfgs {
		for _, dc := range []DrawContract{DrawV2, DrawV3} {
			for _, em := range engineModes {
				v1 := cfg
				v1.Draw = DrawV1
				alt := cfg
				alt.Draw = dc
				ref := runEngine(t, top.G, v1, em.eng, em.mode, 7, 13, 40, 0.3)
				got := runEngine(t, top.G, alt, em.eng, em.mode, 7, 13, 40, 0.3)
				name := fmt.Sprintf("%v %v pernode=%v %v/%v", dc, cfg.Fault, cfg.PerNodeP != nil, em.eng, em.mode)
				requireIdentical(t, name, ref, got)
			}
		}
	}
}

// TestDrawTracedMatchesUntraced: tracing forces the per-site marking
// path on engines that would otherwise bulk-mark, so a traced run must
// reproduce an untraced run's stats and deliveries exactly — for the
// bulk-capable contracts (v2 skip, v3 burst) this proves the two marking
// paths consume the stream identically.
func TestDrawTracedMatchesUntraced(t *testing.T) {
	top := graph.Complete(150)
	for _, dc := range []DrawContract{DrawV2, DrawV3, DrawV4} {
		for _, p := range []float64{0.02, 0.3} {
			cfg := Config{Fault: SenderFaults, P: p, Draw: dc, Engine: Dense}
			traced := executeEngine(t, top.G, cfg, Dense, viaStepSet, 21, 50, func(round, v int) bool {
				return (round+v)%2 == 0
			})
			untraced := MustNew[int32](top.G, cfg, rng.New(21))
			n := top.G.N()
			tx := bitset.New(n)
			payload := make([]int32, n)
			for round := 0; round < 50; round++ {
				tx.Reset()
				for v := 0; v < n; v++ {
					if (round+v)%2 == 0 {
						tx.Set(v)
					}
				}
				untraced.StepSet(tx, payload, nil, nil)
			}
			if traced.stats != untraced.Stats() {
				t.Fatalf("%v p=%v: traced stats %+v != untraced %+v", dc, p, traced.stats, untraced.Stats())
			}
		}
	}
}
