package radio

import (
	"fmt"
	"strings"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// Every trial builds its own Network, and networks on one graph share
// only the immutable graph: its CSR, bit matrix or closed form. These
// tests check that nothing else is shared — not between networks stepped
// side by side, as the concurrent trials of a sweep are, and not from a
// network abandoned by a panic to the networks built after it.

// transcriptRounds is the length of the execTranscripts driver.
const transcriptRounds = 40

// execTranscripts runs a deterministic multi-round driver on every
// network, their rounds interleaved: round r of nets[0], of nets[1], …,
// then round r+1. Network i's broadcasters are drawn from
// rng.New(seeds[i]). It returns, per network, a transcript of every
// delivery plus the final stats.
func execTranscripts(t *testing.T, nets []*Network[int32], seeds []uint64) []string {
	t.Helper()
	n := nets[0].Graph().N()
	drivers := make([]*rng.Stream, len(nets))
	for i, seed := range seeds {
		drivers[i] = rng.New(seed)
	}
	tx := bitset.New(n)
	payload := make([]int32, n)
	outs := make([]strings.Builder, len(nets))
	for round := 0; round < transcriptRounds; round++ {
		for i, net := range nets {
			randomTx(tx, drivers[i], 0.3)
			for v := range payload {
				payload[v] = int32(v + round*n)
			}
			net.StepSet(tx, payload, nil, func(d Delivery[int32]) {
				fmt.Fprintf(&outs[i], "%d:%d<-%d=%d;", round, d.To, d.From, d.Payload)
			})
		}
	}
	got := make([]string, len(nets))
	for i, net := range nets {
		fmt.Fprintf(&outs[i], "stats=%+v", net.Stats())
		got[i] = outs[i].String()
	}
	return got
}

// execTranscript is execTranscripts on one network.
func execTranscript(t *testing.T, net *Network[int32], seed uint64) string {
	t.Helper()
	return execTranscripts(t, []*Network[int32]{net}, []uint64{seed})[0]
}

// TestNetworksSharingGraphIndependent: a network stepped in lockstep with
// another on the same graph executes exactly as it does alone, and a
// network built after another has run reproduces one built before, for
// every engine and fault model.
func TestNetworksSharingGraphIndependent(t *testing.T) {
	g := graph.GNP(96, 0.2, rng.New(5)).G
	for _, engine := range []Engine{Sparse, Dense} {
		for _, cfg := range []Config{
			{Fault: Faultless, Engine: engine},
			{Fault: SenderFaults, P: 0.4, Engine: engine},
			{Fault: ReceiverFaults, P: 0.4, Engine: engine},
		} {
			t.Run(fmt.Sprintf("%s/%s", engine, cfg.Fault), func(t *testing.T) {
				want := execTranscript(t, MustNew[int32](g, cfg, rng.New(42)), 7)
				other := execTranscript(t, MustNew[int32](g, cfg, rng.New(1)), 3)
				if other == want {
					t.Fatal("the two executions coincide, so lockstep would show nothing")
				}
				nets := []*Network[int32]{MustNew[int32](g, cfg, rng.New(1)), MustNew[int32](g, cfg, rng.New(42))}
				got := execTranscripts(t, nets, []uint64{3, 7})
				if got[0] != other || got[1] != want {
					t.Fatalf("lockstep executions diverged from solo ones\n got: %.120s\nwant: %.120s", got[1], want)
				}
				if again := execTranscript(t, MustNew[int32](g, cfg, rng.New(42)), 7); again != want {
					t.Fatalf("a network built after others ran diverged\n got: %.120s\nwant: %.120s", again, want)
				}
			})
		}
	}
}

// panicConfigs are the fault environments the mid-round panic tests
// abandon rounds under: with sender faults a panic also strands this
// round's sender-noise flags and, under v2, its recorded fault sites.
var panicConfigs = []Config{
	{Fault: Faultless},
	{Fault: SenderFaults, P: 0.3},
	{Fault: SenderFaults, P: 0.3, Draw: DrawV2},
	{Fault: ReceiverFaults, P: 0.3},
}

// abandoned is the value abandonRound panics with.
type abandoned struct{}

// abandonRound runs one round through step with a deliver function that
// panics at the round's first delivery, recovers that panic, and returns
// the receiver it panicked at.
func abandonRound(t *testing.T, step func(deliver func(d Delivery[int32]))) int {
	t.Helper()
	at := -1
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abandoned); !ok {
					panic(r)
				}
			}
		}()
		step(func(d Delivery[int32]) {
			at = d.To
			panic(abandoned{})
		})
	}()
	if at < 0 {
		t.Fatal("the round delivered nothing, so it was not abandoned")
	}
	return at
}

// requireUnvisitedInWord fails unless some listener after u in u's node
// word hears exactly one transmitting neighbour and, when collision is
// set, another hears two or more: listeners the resolve walk had not
// reached when u's delivery panicked. On the dense and implicit engines
// nothing records them; on the sparse engine the abandoned network has
// taken their word off its tally but not yet resolved them, and every
// later word of its window stays set.
func requireUnvisitedInWord(t *testing.T, g *graph.Graph, transmits func(v int) bool, u int, collision bool) {
	t.Helper()
	unique, collided := false, false
	for x := u + 1; x < g.N() && x>>6 == u>>6; x++ {
		if transmits(x) {
			continue
		}
		heard := 0
		for v := 0; v < g.N(); v++ {
			if transmits(v) && g.HasEdge(x, v) {
				heard++
			}
		}
		unique = unique || heard == 1
		collided = collided || heard > 1
	}
	if !unique || collision && !collided {
		t.Fatalf("listeners after %d in its word: unique %v, collision %v; the abandoned round tests too little", u, unique, collided)
	}
}

// TestFreshNetworkAfterMidRoundPanic: a deliver callback that panics
// partway through a round abandons its network mid-resolution, and such
// a network is discarded. Its inconsistent scratch must stay with it: a
// network built afterwards on the same graph executes exactly as one
// built before the panic. The panic comes at the round's first delivery,
// so the rest of that word's listeners are unvisited.
//   - On the complete graph every other node hears node 0 alone. The
//     sparse and dense engines run the Builder's CSR complete graph and
//     the implicit engine runs Complete's closed form.
//   - On row 1 of an 8×8 grid, broadcasters 9, 11 and 13 leave listeners
//     10 and 12 heard twice and the rest of their neighbours in word 0
//     heard once.
func TestFreshNetworkAfterMidRoundPanic(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		senders   []int
		engines   []Engine
		collision bool
	}{
		{"complete", builderComplete(96).G, []int{0}, []Engine{Sparse, Dense}, false},
		{"complete", graph.Complete(96).G, []int{0}, []Engine{Implicit}, false},
		{"grid", graph.Grid(8, 8).G, []int{9, 11, 13}, []Engine{Sparse}, true},
	}
	for _, c := range cases {
		tx := bitset.New(c.g.N())
		for _, v := range c.senders {
			tx.Set(v)
		}
		payload := make([]int32, c.g.N())
		for _, engine := range c.engines {
			for _, cfg := range panicConfigs {
				cfg.Engine = engine
				t.Run(fmt.Sprintf("%s/%s/%s/draw %v", c.name, engine, cfg.Fault, cfg.Draw), func(t *testing.T) {
					if got := cfg.ResolveEngine(c.g); got != engine {
						t.Fatalf("engine resolved to %v, want %v", got, engine)
					}
					want := execTranscript(t, MustNew[int32](c.g, cfg, rng.New(42)), 7)

					net := MustNew[int32](c.g, cfg, rng.New(1))
					at := abandonRound(t, func(deliver func(d Delivery[int32])) {
						net.StepSet(tx, payload, nil, deliver)
					})
					requireUnvisitedInWord(t, c.g, tx.Test, at, c.collision)
					if got := execTranscript(t, MustNew[int32](c.g, cfg, rng.New(42)), 7); got != want {
						t.Fatalf("execution after the panic diverged\n got: %.120s\nwant: %.120s", got, want)
					}
				})
			}
		}
	}
}

// contractRun is what a draw-contract run leaves observable: stats, the
// accumulated rx set and the stream position after the run.
type contractRun struct {
	stats    Stats
	rx       []uint64
	nextDraw uint64
}

// TestDrawContractStatePerNetwork: a draw contract keeps its cross-round
// state — v2's pending skip countdown and recorded fault sites, v3's
// phase indicator and stationarity init, v4's jam prelude — on its
// network, so it restarts with every scalar network: two networks
// stepped in lockstep on one graph each reproduce their solo runs.
func TestDrawContractStatePerNetwork(t *testing.T) {
	g := builderComplete(200).G
	n := g.N()
	for _, dc := range []DrawContract{DrawV2, DrawV3, DrawV4} {
		cfg := Config{Fault: SenderFaults, P: 0.01, Draw: dc, Engine: Dense}
		if got := cfg.ResolveEngine(g); got != Dense {
			t.Fatalf("engine resolved to %v, want dense", got)
		}
		t.Run(dc.String(), func(t *testing.T) {
			// run steps one network per seed, their rounds interleaved.
			run := func(seeds ...uint64) []contractRun {
				nets := make([]*Network[int32], len(seeds))
				rnds := make([]*rng.Stream, len(seeds))
				rxs := make([]*bitset.Set, len(seeds))
				for i, seed := range seeds {
					rnds[i] = rng.New(seed)
					nets[i] = MustNew[int32](g, cfg, rnds[i])
					rxs[i] = bitset.New(n)
				}
				tx := bitset.New(n)
				payload := make([]int32, n)
				for round := 0; round < 30; round++ {
					tx.Reset()
					for v := round % 3; v < n; v += 3 {
						tx.Set(v)
					}
					for i, net := range nets {
						net.StepSet(tx, payload, rxs[i], nil)
					}
				}
				out := make([]contractRun, len(seeds))
				for i, net := range nets {
					out[i] = contractRun{stats: net.Stats(), rx: append([]uint64(nil), rxs[i].Words()...), nextDraw: rnds[i].Uint64()}
				}
				return out
			}
			want77, want999 := run(77)[0], run(999)[0]
			if want77.stats.SenderFaults == 0 {
				t.Fatal("the run drew no sender faults, so it tests no contract state")
			}
			got := run(999, 77)
			for i, want := range []contractRun{want999, want77} {
				if got[i].stats != want.stats || got[i].nextDraw != want.nextDraw || fmt.Sprint(got[i].rx) != fmt.Sprint(want.rx) {
					t.Fatalf("network %d: lockstep run diverged from its solo run\nwant %+v\ngot  %+v", i, want.stats, got[i].stats)
				}
			}
		})
	}
}
