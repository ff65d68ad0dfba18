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
// model, with batched rx accumulation. The sparse engine is also stepped
// on a star's hub round and a WCT(4096) round with an rx set, as the star
// and WCT runners step them, and with a deliver callback on a grid and on
// WCT(4096): the column of last transmitters that only those rounds write
// is allocated on the first of them, once, never per round.
func TestStepSetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sparseConfigs := []Config{
		{Fault: Faultless, Engine: Sparse},
		{Fault: SenderFaults, P: 0.3, Engine: Sparse},
		{Fault: ReceiverFaults, P: 0.3, Engine: Sparse},
	}
	wct := graph.NewWCT(graph.DefaultWCTParams(4096), rng.New(4))
	t.Run("hub-and-wct-rx", func(t *testing.T) {
		star := graph.Star(4096)
		for _, c := range []struct {
			top graph.Topology
			tx  *bitset.Set
		}{
			{star, microbenchTx(star.G.N(), 0, 1)},
			{wct.Topology, microbenchTx(wct.G.N(), int(wct.Senders[0]), 8)},
		} {
			for _, cfg := range sparseConfigs {
				net := MustNew[int32](c.top.G, cfg, rng.New(7))
				n := c.top.G.N()
				payload := make([]int32, n)
				rx := bitset.New(n)
				allocs := testing.AllocsPerRun(100, func() {
					rx.Reset()
					net.StepSet(c.tx, payload, rx, nil)
				})
				if allocs != 0 {
					t.Errorf("%s/%v: StepSet with an rx set allocates %.1f per round, want 0", c.top.Name, cfg.Fault, allocs)
				}
				if net.Stats().Deliveries == 0 {
					t.Errorf("%s/%v: the rounds delivered nothing, so they test no receiver path", c.top.Name, cfg.Fault)
				}
			}
		}
	})
	t.Run("deliver", func(t *testing.T) {
		for _, c := range []struct {
			top graph.Topology
			tx  *bitset.Set
		}{
			{graph.Grid(32, 32), microbenchTx(1024, 512, 16)},
			{wct.Topology, microbenchTx(wct.G.N(), int(wct.Senders[0]), 8)},
		} {
			for _, cfg := range sparseConfigs {
				net := MustNew[int32](c.top.G, cfg, rng.New(7))
				n := c.top.G.N()
				payload := make([]int32, n)
				delivered := 0
				deliver := func(d Delivery[int32]) { delivered++ }
				allocs := testing.AllocsPerRun(100, func() {
					net.StepSet(c.tx, payload, nil, deliver)
				})
				if allocs != 0 {
					t.Errorf("%s/%v: StepSet with a deliver callback allocates %.1f per round, want 0", c.top.Name, cfg.Fault, allocs)
				}
				if delivered == 0 {
					t.Errorf("%s/%v: the rounds delivered nothing, so they test no deliver path", c.top.Name, cfg.Fault)
				}
			}
		}
	})
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
			if r := net.Stats().Rounds; r != 1 || traced != 1 {
				t.Fatalf("silent round: Rounds=%d traced=%d, want 1/1", r, traced)
			}
		})
	}
}

// TestSenderNoiseMasksListeners pins the sender model on a hand-built
// graph where broadcaster 1 is sender-faulty and broadcaster 4 is clean:
//
//	0 — 1 — 2 — 4 — 3,  and 1 — 4
//
// Listener 0's only transmitting neighbour is faulty, so it gets nothing:
// no delivery, no collision, no fault. Listener 2 hears the faulty and
// the clean broadcaster, which is exactly one collision. Listener 3
// hears 4 alone and receives its packet, and 5, isolated, hears nothing.
// Checked on the sparse and dense engines, with callbacks (deliver and a
// trace) and without (rx only), under v1 and v2.
func TestSenderNoiseMasksListeners(t *testing.T) {
	const faulty, clean = 1, 4
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 4}, {3, 4}, {1, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tx := bitset.New(6)
	tx.Set(faulty)
	tx.Set(clean)
	payload := []int32{10, 11, 12, 13, 14, 15}
	want := Stats{Rounds: 1, Broadcasts: 2, Deliveries: 1, Collisions: 1, SenderFaults: 1}
	for _, dc := range []DrawContract{DrawV1, DrawV2} {
		cfg := Config{Fault: SenderFaults, P: 0.5, Draw: dc}
		// The first seed on which the contract's first broadcaster site
		// faults and its second does not: about one seed in four.
		seed := uint64(1)
		for ; seed < 100; seed++ {
			d, r := makeDrawState(cfg, g), rng.New(seed)
			if d.site(faulty, r) && !d.site(clean, r) {
				break
			}
		}
		for _, eng := range []Engine{Sparse, Dense} {
			cfg.Engine = eng
			for _, callbacks := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/callbacks=%v", dc, eng, callbacks)
				net := MustNew[int32](g, cfg, rng.New(seed))
				if net.Engine() != eng {
					t.Fatalf("%s: engine resolved to %v", name, net.Engine())
				}
				rx := bitset.New(6)
				var deliveries []Delivery[int32]
				var traced []int32
				var deliver func(d Delivery[int32])
				if callbacks {
					deliver = func(d Delivery[int32]) { deliveries = append(deliveries, d) }
					net.SetTrace(func(_ int, _, receivers []int32) { traced = append(traced, receivers...) })
				}
				net.StepSet(tx, payload, rx, deliver)
				if got := net.Stats(); got != want {
					t.Errorf("%s: stats %+v, want %+v", name, got, want)
				}
				if got := rx.String(); got != "{3}" {
					t.Errorf("%s: receivers %s, want {3}", name, got)
				}
				if callbacks {
					if len(deliveries) != 1 || deliveries[0] != (Delivery[int32]{To: 3, From: clean, Payload: 14}) {
						t.Errorf("%s: deliveries %+v, want one from %d to 3", name, deliveries, clean)
					}
					if len(traced) != 1 || traced[0] != 3 {
						t.Errorf("%s: traced receivers %v, want [3]", name, traced)
					}
				}
			}
		}
	}
}
