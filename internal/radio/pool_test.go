package radio

import (
	"fmt"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// execTranscript runs a deterministic multi-round driver on net and
// returns a transcript of every delivery plus the final stats, for
// equality comparison between fresh and pooled networks.
func execTranscript(t *testing.T, net *Network[int32], seed uint64) string {
	t.Helper()
	g := net.Graph()
	n := g.N()
	driver := rng.New(seed)
	bc := make([]bool, n)
	payload := make([]int32, n)
	out := ""
	for round := 0; round < 40; round++ {
		for v := 0; v < n; v++ {
			bc[v] = driver.Bool(0.3)
			payload[v] = int32(v + round*n)
		}
		net.Step(bc, payload, func(d Delivery[int32]) {
			out += fmt.Sprintf("%d:%d<-%d=%d;", round, d.To, d.From, d.Payload)
		})
	}
	out += fmt.Sprintf("stats=%+v", net.Stats())
	return out
}

// TestPoolGetEqualsNew: a network recycled through the pool (after running
// a full dirty execution) behaves bit-identically to a freshly constructed
// one, for every engine and fault model.
func TestPoolGetEqualsNew(t *testing.T) {
	g := graph.GNP(96, 0.2, rng.New(5)).G
	for _, engine := range []Engine{Sparse, Dense} {
		for _, cfg := range []Config{
			{Fault: Faultless, Engine: engine},
			{Fault: SenderFaults, P: 0.4, Engine: engine},
			{Fault: ReceiverFaults, P: 0.4, Engine: engine},
		} {
			name := fmt.Sprintf("%s/%s", engine, cfg.Fault)
			t.Run(name, func(t *testing.T) {
				fresh, err := New[int32](g, cfg, rng.New(42))
				if err != nil {
					t.Fatal(err)
				}
				want := execTranscript(t, fresh, 7)

				var pool Pool[int32]
				dirty, err := pool.Get(g, cfg, rng.New(1))
				if err != nil {
					t.Fatal(err)
				}
				execTranscript(t, dirty, 3) // leave arbitrary state behind
				pool.Put(dirty)

				recycled, err := pool.Get(g, cfg, rng.New(42))
				if err != nil {
					t.Fatal(err)
				}
				if recycled != dirty {
					t.Fatal("pool did not reuse the stored network")
				}
				if got := execTranscript(t, recycled, 7); got != want {
					t.Fatalf("recycled execution diverged from fresh\n got: %.120s\nwant: %.120s", got, want)
				}
			})
		}
	}
}

// TestResetClearsObservableState: Reset zeroes stats, rounds and trace.
func TestResetClearsObservableState(t *testing.T) {
	g := graph.Path(16).G
	net := MustNew[int32](g, Config{Fault: ReceiverFaults, P: 0.5}, rng.New(1))
	traced := 0
	net.SetTrace(func(round int, tx, rx []int32) { traced++ })
	execTranscript(t, net, 2)
	if net.Round() == 0 || traced == 0 {
		t.Fatal("setup produced no activity")
	}
	net.Reset(rng.New(9))
	if net.Round() != 0 {
		t.Fatalf("Round after Reset = %d", net.Round())
	}
	if (net.Stats() != Stats{}) {
		t.Fatalf("Stats after Reset = %+v", net.Stats())
	}
	before := traced
	execTranscript(t, net, 2)
	if traced != before {
		t.Fatal("trace callback survived Reset")
	}
}

// panicResetConfigs are the fault environments the mid-round panic tests
// abandon rounds under: with sender faults a panic also strands this
// round's sender-noise flags and, under v2, its recorded fault sites.
var panicResetConfigs = []Config{
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
// reached when u's delivery panicked, whose tally slots Reset must still
// zero.
func requireUnvisitedInWord(t *testing.T, g *graph.Graph, transmits func(v int) bool, u int, collision bool) {
	t.Helper()
	unique, collided := false, false
	for x := u + 1; x < g.N() && x>>6 == u>>6; x++ {
		if transmits(x) {
			continue
		}
		heard := 0
		for _, v := range g.Neighbors(x) {
			if transmits(int(v)) {
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

// TestResetAfterMidRoundPanic: a deliver callback that panics partway
// through a round abandons the network mid-resolution; Reset must still
// return it to fresh-construction behaviour, its promise for networks
// "abandoned in an unexpected state". The panic comes at the round's
// first delivery, so the rest of that word's listeners are unvisited:
// the sparse walk must not clear a touched word before zeroing its
// members' slots, or those slots survive Reset.
//   - On the complete graph every other node hears node 0 alone. Complete
//     is the one graph all three engines run.
//   - On row 1 of an 8×8 grid, broadcasters 9, 11 and 13 leave listeners
//     10 and 12 with a collision slot and the rest of word 0 with a
//     unique one.
func TestResetAfterMidRoundPanic(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		senders   []int
		engines   []Engine
		collision bool
	}{
		{"complete", graph.Complete(96).G, []int{0}, []Engine{Sparse, Dense, Implicit}, false},
		{"grid", graph.Grid(8, 8).G, []int{9, 11, 13}, []Engine{Sparse}, true},
	}
	for _, c := range cases {
		tx := bitset.New(c.g.N())
		for _, v := range c.senders {
			tx.Set(v)
		}
		payload := make([]int32, c.g.N())
		for _, engine := range c.engines {
			for _, cfg := range panicResetConfigs {
				cfg.Engine = engine
				name := fmt.Sprintf("%s/%s/%s/draw %v", c.name, engine, cfg.Fault, cfg.Draw)
				want := execTranscript(t, MustNew[int32](c.g, cfg, rng.New(42)), 7)

				net := MustNew[int32](c.g, cfg, rng.New(1))
				at := abandonRound(t, func(deliver func(d Delivery[int32])) {
					net.StepSet(tx, payload, nil, deliver)
				})
				requireUnvisitedInWord(t, c.g, tx.Test, at, c.collision)
				net.Reset(rng.New(42))
				if got := execTranscript(t, net, 7); got != want {
					t.Fatalf("%s: execution after Reset diverged from fresh\n got: %.120s\nwant: %.120s", name, got, want)
				}
			}
		}
	}
}

// TestPoolKeySeparation: networks are only reused for the same
// (graph, config) pair.
func TestPoolKeySeparation(t *testing.T) {
	g1 := graph.Path(8).G
	g2 := graph.Path(8).G // same shape, distinct identity
	var pool Pool[int32]
	n1, _ := pool.Get(g1, Config{Fault: Faultless}, rng.New(1))
	pool.Put(n1)
	n2, _ := pool.Get(g2, Config{Fault: Faultless}, rng.New(1))
	if n1 == n2 {
		t.Fatal("pool crossed graph identities")
	}
	pool.Put(n2)
	n3, _ := pool.Get(g1, Config{Fault: SenderFaults, P: 0.2}, rng.New(1))
	if n3 == n1 {
		t.Fatal("pool crossed fault configs")
	}
	n4, _ := pool.Get(g1, Config{Fault: Faultless}, rng.New(1))
	if n4 != n1 {
		t.Fatal("pool failed to reuse matching network")
	}
}

// TestPoolSkipsPerNodeP: per-node probability configs bypass the pool.
func TestPoolSkipsPerNodeP(t *testing.T) {
	top := graph.Path(4)
	perNode := make([]float64, 4)
	cfg := Config{Fault: ReceiverFaults, P: 0.1, PerNodeP: perNode}
	var pool Pool[int32]
	n1, err := pool.Get(top.G, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(n1)
	n2, _ := pool.Get(top.G, cfg, rng.New(1))
	if n1 == n2 {
		t.Fatal("per-node config was pooled")
	}
}

// TestPoolCaps: Put drops networks beyond the per-key cap instead of
// growing without bound.
func TestPoolCaps(t *testing.T) {
	g := graph.Path(4).G
	cfg := Config{Fault: Faultless}
	var pool Pool[int32]
	nets := make([]*Network[int32], poolKeyCap+5)
	for i := range nets {
		n, err := New[int32](g, cfg, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
	}
	for _, n := range nets {
		pool.Put(n)
	}
	if pool.size != poolKeyCap {
		t.Fatalf("pool size = %d, want capped at %d", pool.size, poolKeyCap)
	}
}

// TestPoolEvictsOldestAtTotalCap: when the pool-wide cap is reached, Put
// evicts the least recently stored network instead of dropping the new
// one — a long suite keeps pooling its current graphs.
func TestPoolEvictsOldestAtTotalCap(t *testing.T) {
	cfg := Config{Fault: Faultless}
	var pool Pool[int32]
	// Fill the pool to its total cap using many distinct graphs.
	graphs := make([]*graph.Graph, poolTotalCap)
	for i := range graphs {
		graphs[i] = graph.Path(4).G
		n, err := New[int32](graphs[i], cfg, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(n)
	}
	if pool.size != poolTotalCap {
		t.Fatalf("pool size = %d, want %d", pool.size, poolTotalCap)
	}
	// A new graph's network must still be accepted (evicting the oldest).
	fresh := graph.Path(4).G
	n, err := New[int32](fresh, cfg, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(n)
	if pool.size != poolTotalCap {
		t.Fatalf("pool size after eviction = %d, want %d", pool.size, poolTotalCap)
	}
	got, err := pool.Get(fresh, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatal("newest network was dropped instead of evicting the oldest")
	}
	// The oldest key must be gone.
	if m, _ := pool.Get(graphs[0], cfg, rng.New(1)); m == nil || pool.free == nil {
		t.Fatal("unexpected pool state")
	} else if pool.size > poolTotalCap {
		t.Fatalf("pool overgrew: %d", pool.size)
	}
}
