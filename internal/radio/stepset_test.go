package radio

import (
	"fmt"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// TestStepSetZeroAllocs pins the acceptance bar for the set-native round
// path: zero allocations per round on both engines, for every fault
// model, with batched rx accumulation.
func TestStepSetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	top := graph.GNP(512, 0.25, rng.New(3))
	configs := []Config{
		{Fault: Faultless},
		{Fault: SenderFaults, P: 0.3},
		{Fault: ReceiverFaults, P: 0.3},
	}
	for _, eng := range []Engine{Sparse, Dense} {
		for _, cfg := range configs {
			cfg.Engine = eng
			net := MustNew[int32](top.G, cfg, rng.New(7))
			n := top.G.N()
			payload := make([]int32, n)
			tx := bitset.New(n)
			rx := bitset.New(n)
			driver := rng.New(11)
			for v := 0; v < n; v++ {
				if driver.Bool(0.05) {
					tx.Set(v)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				rx.Reset()
				net.StepSet(tx, payload, rx, nil)
			})
			if allocs != 0 {
				t.Errorf("%v/%v: StepSet allocates %.1f per round, want 0", eng, cfg.Fault, allocs)
			}
		}
	}
}

// TestStepSetLengthValidation: mismatched tx/payload/rx lengths must
// panic.
func TestStepSetLengthValidation(t *testing.T) {
	top := graph.Path(8)
	cases := []struct {
		name           string
		txN, payN, rxN int // rxN < 0 means nil rx
		shouldPanic    bool
	}{
		{"all-correct", 8, 8, -1, false},
		{"rx-correct", 8, 8, 8, false},
		{"tx-short", 7, 8, -1, true},
		{"payload-long", 8, 9, -1, true},
		{"rx-short", 8, 8, 7, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := MustNew[int32](top.G, Config{Fault: Faultless}, rng.New(1))
			var rx *bitset.Set
			if c.rxN >= 0 {
				rx = bitset.New(c.rxN)
			}
			defer func() {
				r := recover()
				if c.shouldPanic && r == nil {
					t.Fatal("no panic on mismatched lengths")
				}
				if !c.shouldPanic && r != nil {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			net.StepSet(bitset.New(c.txN), make([]int32, c.payN), rx, nil)
		})
	}
}

// TestStepSetSilentRoundCountsRound: a round with no broadcasters still
// counts as a round (and fires the trace) on both engines, with no random
// draws consumed.
func TestStepSetSilentRoundCountsRound(t *testing.T) {
	for _, eng := range []Engine{Sparse, Dense} {
		t.Run(fmt.Sprintf("%v-stepset", eng), func(t *testing.T) {
			top := builderComplete(70)
			net := MustNew[int32](top.G, Config{Fault: ReceiverFaults, P: 0.4, Engine: eng}, rng.New(1))
			if net.Engine() != eng {
				t.Fatalf("engine resolved to %v, want %v", net.Engine(), eng)
			}
			traced := 0
			net.SetTrace(func(round int, broadcasters, receivers []int32) {
				if len(broadcasters) != 0 || len(receivers) != 0 {
					t.Fatalf("silent round traced %d broadcasters, %d receivers", len(broadcasters), len(receivers))
				}
				traced++
			})
			n := top.G.N()
			net.StepSet(bitset.New(n), make([]int32, n), nil, nil)
			if net.Round() != 1 || traced != 1 {
				t.Fatalf("silent round: Round()=%d traced=%d, want 1/1", net.Round(), traced)
			}
		})
	}
}
