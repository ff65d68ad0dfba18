package radio

import (
	"fmt"
	"math/bits"
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
// — the per-site decision the dense engine's receiver sites run, and
// drawState.mask runs per bit outside v1 — and return the faulty subset.
// The bulk tests and the fuzz target compare the optimized marking paths
// against this.
func drawSiteWalk(d *drawState, r *rng.Stream, sites []int) map[int]bool {
	faulty := map[int]bool{}
	for _, v := range sites {
		if d.site(int32(v), r) {
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
// SenderFaults.
func checkBulkMatchesPerSite(t *testing.T, cfg Config, n int, seed uint64, rounds int, pick func(r *rng.Stream, v int) bool) {
	t.Helper()
	refStream := rng.New(seed)
	netStream := rng.New(seed)
	top := graph.Complete(n)
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
		want := drawSiteWalk(&refDraw, refStream, sites)
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

// checkMaskMatchesPerSite decides rounds of random site sets word by word
// through drawState.mask, as the sparse and implicit engines decide a
// word of eligible listeners (and the sparse engine a word of
// broadcasters), and requires each word's faulty bits, the stream
// position after each word and the draw state after each round to equal
// a per-site walk's on an identically-seeded stream. Round r drops the
// sites of its first r mod (words) words, so empty words, rounds whose
// first site lies past their first word, and v3 phases that span words
// and rounds all occur. Shared by TestDrawMaskMatchesPerSite and
// FuzzDrawContract.
func checkMaskMatchesPerSite(t *testing.T, cfg Config, n int, seed uint64, rounds int, pick func(r *rng.Stream, v int) bool) {
	t.Helper()
	refStream, maskStream := rng.New(seed), rng.New(seed)
	g := graph.Complete(n).G
	refDraw, maskDraw := makeDrawState(cfg, g), makeDrawState(cfg, g)
	siteGen := rng.New(seed + 0x5173)
	words := (n + 63) / 64
	for round := 0; round < rounds; round++ {
		ws := make([]uint64, words)
		for v := 0; v < n; v++ {
			if pick(siteGen, v) && v/64 >= round%words {
				ws[v/64] |= 1 << (v % 64)
			}
		}
		for wi, w := range ws {
			var want uint64
			for m := w; m != 0; m &= m - 1 {
				if refDraw.site(int32(wi*64+bits.TrailingZeros64(m)), refStream) {
					want |= m & -m
				}
			}
			before := *maskStream
			if got := maskDraw.mask(wi, w, maskStream); got != want {
				t.Fatalf("%v p=%v round %d word %d (%#x): mask faults %#x, per-site %#x", cfg.Draw, cfg.P, round, wi, w, got, want)
			}
			if *refStream != *maskStream {
				t.Fatalf("%v p=%v round %d word %d: stream states diverged", cfg.Draw, cfg.P, round, wi)
			}
			if w == 0 && *maskStream != before {
				t.Fatalf("%v p=%v round %d word %d: an empty word drew", cfg.Draw, cfg.P, round, wi)
			}
		}
		refDraw.endRound()
		maskDraw.endRound()
		if refDraw != maskDraw {
			t.Fatalf("%v p=%v round %d: draw states diverged: mask %+v, per-site %+v", cfg.Draw, cfg.P, round, maskDraw, refDraw)
		}
	}
}

// drawGridCases returns the contract configurations the deterministic
// draw tests sweep: p from dense faults to the sparse-fault regime and
// spans that cross many rounds, for every contract and its parameter
// variants.
func drawGridCases() []Config {
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
	return cases
}

// TestDrawMaskMatchesPerSite pins drawState.mask to the per-site walk
// over the contract grid at three site densities, p = 0 included through
// the v1 fallback.
func TestDrawMaskMatchesPerSite(t *testing.T) {
	cases := append(drawGridCases(), Config{Fault: ReceiverFaults, P: 0, Draw: DrawV2})
	for _, cfg := range cases {
		for _, density := range []float64{1, 0.5, 0.05} {
			d := density
			checkMaskMatchesPerSite(t, cfg, 300, 0x6d61+uint64(d*100), 40, func(r *rng.Stream, v int) bool {
				return r.Bool(d)
			})
		}
	}
}

// TestDrawBulkMatchesPerSite pins the optimized marking paths to the
// per-site reference over a p grid spanning dense faults, the
// sparse-fault regime and spans that cross many rounds: the v2 skip jump
// and the v3 phase-skipping walk against their countdown twins, and the
// v1/v4 rows through the same harness (their sender marking goes a word
// at a time through drawState.mask), doubling as a check of the harness
// itself.
func TestDrawBulkMatchesPerSite(t *testing.T) {
	for _, cfg := range drawGridCases() {
		for _, density := range []float64{1, 0.5, 0.05} {
			d := density
			checkBulkMatchesPerSite(t, cfg, 300, 0xd0c0+uint64(d*100), 40, func(r *rng.Stream, v int) bool {
				return r.Bool(d)
			})
		}
	}
}

// TestDrawDegenerateFallsBackToV1 pins DrawV2 and DrawV3 at p = 0 to v1
// bit for bit: same executions, same stream positions, on the same seeds.
// (At p = 0 there is no fault to skip to and no stationary phase process
// to derive, so the contracts define it as the v1 sequence. DrawV4
// deliberately has no such fallback: jamming forces faults at p = 0 too.)
func TestDrawDegenerateFallsBackToV1(t *testing.T) {
	top := graph.GNP(80, 0.15, rng.New(12))
	for _, fault := range []FaultModel{SenderFaults, ReceiverFaults} {
		for _, dc := range []DrawContract{DrawV2, DrawV3} {
			for _, eng := range []Engine{Sparse, Dense} {
				ref := runEngine(t, top.G, Config{Fault: fault}, eng, 7, 13, 40, 0.3)
				got := runEngine(t, top.G, Config{Fault: fault, Draw: dc}, eng, 7, 13, 40, 0.3)
				requireIdentical(t, fmt.Sprintf("%v %v %v", dc, fault, eng), ref, got)
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
	top := builderComplete(150)
	for _, dc := range []DrawContract{DrawV2, DrawV3, DrawV4} {
		for _, p := range []float64{0.02, 0.3} {
			cfg := Config{Fault: SenderFaults, P: p, Draw: dc, Engine: Dense}
			traced := executeEngine(t, top.G, cfg, Dense, 21, 50, func(round, v int) bool {
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
