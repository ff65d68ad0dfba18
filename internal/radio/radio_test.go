package radio

import (
	"math"
	"testing"
	"testing/quick"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// stepOnce runs a single round on net and collects deliveries keyed by
// receiver.
func stepOnce(net *Network[int32], tx *bitset.Set, payload []int32) map[int]Delivery[int32] {
	got := make(map[int]Delivery[int32])
	net.StepSet(tx, payload, nil, func(d Delivery[int32]) {
		got[d.To] = d
	})
	return got
}

// txOf returns the broadcast set {vs} over n nodes.
func txOf(n int, vs ...int) *bitset.Set {
	tx := bitset.New(n)
	for _, v := range vs {
		tx.Set(v)
	}
	return tx
}

// randomTx overwrites tx with a Bernoulli(p) broadcast set drawn from
// driver, one draw per node in ascending id.
func randomTx(tx *bitset.Set, driver *rng.Stream, p float64) {
	tx.Reset()
	for v := 0; v < tx.Len(); v++ {
		if driver.Bool(p) {
			tx.Set(v)
		}
	}
}

func faultless(t testing.TB, g *graph.Graph, seed uint64) *Network[int32] {
	t.Helper()
	net, err := New[int32](g, Config{Fault: Faultless}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "faultless", cfg: Config{Fault: Faultless}},
		{name: "faultless ignores p", cfg: Config{Fault: Faultless, P: 5}},
		{name: "sender ok", cfg: Config{Fault: SenderFaults, P: 0.3}},
		{name: "receiver ok", cfg: Config{Fault: ReceiverFaults, P: 0}},
		{name: "p negative", cfg: Config{Fault: SenderFaults, P: -0.1}, wantErr: true},
		{name: "p one", cfg: Config{Fault: ReceiverFaults, P: 1}, wantErr: true},
		{name: "p NaN", cfg: Config{Fault: ReceiverFaults, P: math.NaN()}, wantErr: true},
		{name: "unknown model", cfg: Config{Fault: 0}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestFaultModelString(t *testing.T) {
	if Faultless.String() != "faultless" ||
		SenderFaults.String() != "sender-faults" ||
		ReceiverFaults.String() != "receiver-faults" {
		t.Fatal("FaultModel String names wrong")
	}
	if FaultModel(99).String() == "" {
		t.Fatal("unknown model should still stringify")
	}
}

func TestSingleBroadcasterDelivers(t *testing.T) {
	top := graph.Star(4)
	net := faultless(t, top.G, 1)
	payload := make([]int32, 5)
	payload[0] = 42
	got := stepOnce(net, txOf(5, 0), payload)
	if len(got) != 4 {
		t.Fatalf("deliveries = %d, want 4", len(got))
	}
	for v := 1; v <= 4; v++ {
		d, ok := got[v]
		if !ok || d.From != 0 || d.Payload != 42 {
			t.Fatalf("leaf %d: delivery %+v", v, d)
		}
	}
}

func TestCollisionBlocksReception(t *testing.T) {
	// Path 0-1-2: 0 and 2 both broadcast; 1 hears a collision.
	top := graph.Path(3)
	net := faultless(t, top.G, 1)
	payload := []int32{7, 0, 9}
	got := stepOnce(net, txOf(3, 0, 2), payload)
	if len(got) != 0 {
		t.Fatalf("deliveries = %v, want none (collision)", got)
	}
	if net.Stats().Collisions != 1 {
		t.Fatalf("Collisions = %d, want 1", net.Stats().Collisions)
	}
}

func TestBroadcasterDoesNotReceive(t *testing.T) {
	// Single link: both broadcast — neither receives.
	top := graph.SingleLink()
	net := faultless(t, top.G, 1)
	got := stepOnce(net, txOf(2, 0, 1), []int32{1, 2})
	if len(got) != 0 {
		t.Fatalf("deliveries = %v, want none", got)
	}
	// One broadcasts: only the listener receives.
	got = stepOnce(net, txOf(2, 0), []int32{5, 0})
	if len(got) != 1 || got[1].Payload != 5 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestSilentRoundDeliversNothing(t *testing.T) {
	top := graph.Complete(4)
	net := faultless(t, top.G, 1)
	got := stepOnce(net, txOf(4), make([]int32, 4))
	if len(got) != 0 {
		t.Fatalf("deliveries = %v, want none", got)
	}
	if r := net.Stats().Rounds; r != 1 {
		t.Fatalf("Rounds = %d", r)
	}
}

func TestExactlyOneSemanticsOnTriangleExhaustive(t *testing.T) {
	// Exhaustively check all 8 broadcast patterns on a triangle against the
	// model definition.
	top := graph.Complete(3)
	for mask := 0; mask < 8; mask++ {
		net := faultless(t, top.G, uint64(mask))
		tx := bitset.New(3)
		for v := 0; v < 3; v++ {
			if mask&(1<<v) != 0 {
				tx.Set(v)
			}
		}
		payload := []int32{10, 20, 30}
		got := stepOnce(net, tx, payload)
		for v := 0; v < 3; v++ {
			// Expected: v listening and exactly one neighbour broadcasting.
			count, from := 0, -1
			for u := 0; u < 3; u++ {
				if u != v && tx.Test(u) {
					count++
					from = u
				}
			}
			want := !tx.Test(v) && count == 1
			d, ok := got[v]
			if ok != want {
				t.Fatalf("mask %03b node %d: received=%v want %v", mask, v, ok, want)
			}
			if ok && (d.From != from || d.Payload != payload[from]) {
				t.Fatalf("mask %03b node %d: delivery %+v", mask, v, d)
			}
		}
	}
}

func TestReceiverFaultFrequency(t *testing.T) {
	const p = 0.3
	top := graph.Star(1000)
	net := MustNew[int32](top.G, Config{Fault: ReceiverFaults, P: p}, rng.New(7))
	tx := txOf(1001, 0)
	payload := make([]int32, 1001)
	const rounds = 50
	delivered := 0
	for i := 0; i < rounds; i++ {
		net.StepSet(tx, payload, nil, func(d Delivery[int32]) { delivered++ })
	}
	got := float64(delivered) / float64(rounds*1000)
	if math.Abs(got-(1-p)) > 0.02 {
		t.Fatalf("delivery rate = %v, want ~%v", got, 1-p)
	}
	if net.Stats().ReceiverFaults == 0 {
		t.Fatal("no receiver fault events recorded")
	}
}

func TestReceiverFaultsIndependentAcrossReceivers(t *testing.T) {
	// With receiver faults, different leaves fail in different rounds: the
	// per-round delivered-count should concentrate around (1-p)n rather than
	// swinging between 0 and n.
	const p = 0.5
	top := graph.Star(500)
	net := MustNew[int32](top.G, Config{Fault: ReceiverFaults, P: p}, rng.New(8))
	tx := txOf(501, 0)
	payload := make([]int32, 501)
	allOrNothing := 0
	const rounds = 100
	for i := 0; i < rounds; i++ {
		count := 0
		net.StepSet(tx, payload, nil, func(d Delivery[int32]) { count++ })
		if count == 0 || count == 500 {
			allOrNothing++
		}
	}
	if allOrNothing > 0 {
		t.Fatalf("%d/%d rounds delivered to all-or-none leaves; faults look correlated", allOrNothing, rounds)
	}
}

func TestSenderFaultsCorrelatedAcrossReceivers(t *testing.T) {
	// With sender faults the hub's noise destroys the packet for every leaf
	// simultaneously: per-round deliveries are exactly 0 or n.
	const p = 0.5
	top := graph.Star(200)
	net := MustNew[int32](top.G, Config{Fault: SenderFaults, P: p}, rng.New(9))
	tx := txOf(201, 0)
	payload := make([]int32, 201)
	zero, full, other := 0, 0, 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		count := 0
		net.StepSet(tx, payload, nil, func(d Delivery[int32]) { count++ })
		switch count {
		case 0:
			zero++
		case 200:
			full++
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("%d rounds had partial delivery under sender faults", other)
	}
	frac := float64(full) / rounds
	if math.Abs(frac-(1-p)) > 0.1 {
		t.Fatalf("successful-round fraction = %v, want ~%v", frac, 1-p)
	}
}

func TestSenderFaultStillCollides(t *testing.T) {
	// Sender faults replace content with noise but the carrier still
	// collides: on path 0-1-2 with both endpoints broadcasting, node 1 never
	// receives regardless of fault outcomes.
	top := graph.Path(3)
	net := MustNew[int32](top.G, Config{Fault: SenderFaults, P: 0.9}, rng.New(10))
	tx := txOf(3, 0, 2)
	payload := []int32{1, 0, 2}
	for i := 0; i < 100; i++ {
		if got := stepOnce(net, tx, payload); len(got) != 0 {
			t.Fatalf("round %d: delivery through a collision: %v", i, got)
		}
	}
}

func TestDeterminism(t *testing.T) {
	top := graph.GNP(50, 0.1, rng.New(3))
	run := func() []int64 {
		net := MustNew[int32](top.G, Config{Fault: ReceiverFaults, P: 0.25}, rng.New(42))
		driver := rng.New(77)
		tx := bitset.New(50)
		payload := make([]int32, 50)
		for v := range payload {
			payload[v] = int32(v)
		}
		var trace []int64
		for round := 0; round < 200; round++ {
			randomTx(tx, driver, 0.2)
			var sum int64
			net.StepSet(tx, payload, nil, func(d Delivery[int32]) {
				sum += int64(d.To)*1000003 + int64(d.From)
			})
			trace = append(trace, sum)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("executions diverged at round %d", i)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	top := graph.Star(3)
	net := faultless(t, top.G, 1)
	payload := make([]int32, 4)
	net.StepSet(txOf(4, 0), payload, nil, nil)
	s := net.Stats()
	if s.Rounds != 1 || s.Broadcasts != 1 || s.Deliveries != 3 || s.Collisions != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Two leaves broadcast: hub collides, other leaves hear nothing (leaves
	// are only adjacent to the hub).
	net.StepSet(txOf(4, 1, 2), payload, nil, nil)
	s = net.Stats()
	if s.Rounds != 2 || s.Broadcasts != 3 || s.Collisions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	top := graph.Path(2)
	if _, err := New[int32](top.G, Config{Fault: SenderFaults, P: 1.5}, rng.New(1)); err == nil {
		t.Fatal("bad config accepted")
	}
}

// Property: in the faultless model, delivery happens exactly per the model
// definition, for random graphs and random broadcast sets.
func TestQuickFaultlessMatchesDefinition(t *testing.T) {
	f := func(seed uint64, nRaw uint8, density uint8) bool {
		n := int(nRaw)%30 + 2
		top := graph.GNP(n, 0.2, rng.New(seed))
		net := MustNew[int32](top.G, Config{Fault: Faultless}, rng.New(seed+1))
		driver := rng.New(seed + 2)
		p := float64(density%100) / 100
		tx := bitset.New(n)
		randomTx(tx, driver, p)
		payload := make([]int32, n)
		for v := range payload {
			payload[v] = int32(v + 1)
		}
		received := make(map[int]Delivery[int32])
		net.StepSet(tx, payload, nil, func(d Delivery[int32]) {
			if _, dup := received[d.To]; dup {
				return // flagged below by count mismatch
			}
			received[d.To] = d
		})
		for v := 0; v < n; v++ {
			count, from := 0, -1
			for _, u := range top.G.Neighbors(v) {
				if tx.Test(int(u)) {
					count++
					from = int(u)
				}
			}
			want := !tx.Test(v) && count == 1
			d, ok := received[v]
			if ok != want {
				return false
			}
			if ok && (d.From != from || d.Payload != int32(from+1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the channel statistics are exact functions of the broadcast
// pattern — Broadcasts counts transmitters, Collisions counts listeners
// with >= 2 broadcasting neighbours, and Deliveries + fault events account
// for every single-broadcaster listener.
func TestQuickStatsInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, model uint8, pRaw uint8) bool {
		n := int(nRaw)%25 + 2
		cfg := Config{Fault: FaultModel(int(model)%3 + 1), P: float64(pRaw%90) / 100}
		top := graph.GNP(n, 0.25, rng.New(seed))
		net, err := New[int32](top.G, cfg, rng.New(seed+1))
		if err != nil {
			return false
		}
		driver := rng.New(seed + 2)
		tx := bitset.New(n)
		payload := make([]int32, n)
		var wantBroadcasts, wantCollisions, wantEligible int64
		const rounds = 30
		for rd := 0; rd < rounds; rd++ {
			randomTx(tx, driver, 0.3)
			wantBroadcasts += int64(tx.Count())
			for v := 0; v < n; v++ {
				if tx.Test(v) {
					continue
				}
				cnt := 0
				for _, u := range top.G.Neighbors(v) {
					if tx.Test(int(u)) {
						cnt++
					}
				}
				switch {
				case cnt > 1:
					wantCollisions++
				case cnt == 1:
					wantEligible++
				}
			}
			net.StepSet(tx, payload, nil, nil)
		}
		s := net.Stats()
		if s.Rounds != rounds || s.Broadcasts != wantBroadcasts || s.Collisions != wantCollisions {
			return false
		}
		// Every eligible reception either delivered or was destroyed by a
		// fault. Sender faults destroy per-broadcast, so the per-listener
		// accounting is Deliveries + ReceiverFaults + senderDestroyed =
		// eligible; we can only check the two tracked terms bound it.
		if s.Deliveries+s.ReceiverFaults > wantEligible {
			return false
		}
		if cfg.Fault == Faultless && s.Deliveries != wantEligible {
			return false
		}
		if cfg.Fault == ReceiverFaults && s.Deliveries+s.ReceiverFaults != wantEligible {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: tracing reports exactly the Stats counters, under every model.
func TestQuickTraceMatchesStats(t *testing.T) {
	f := func(seed uint64, model uint8) bool {
		cfg := Config{Fault: FaultModel(int(model)%3 + 1), P: 0.3}
		top := graph.GNP(20, 0.2, rng.New(seed))
		net, err := New[int32](top.G, cfg, rng.New(seed+1))
		if err != nil {
			return false
		}
		var tx, rx int64
		lastRound := -1
		net.SetTrace(func(round int, broadcasters, receivers []int32) {
			if round != lastRound+1 {
				return // non-sequential round numbers would corrupt counts
			}
			lastRound = round
			tx += int64(len(broadcasters))
			rx += int64(len(receivers))
		})
		driver := rng.New(seed + 2)
		bcast := bitset.New(20)
		payload := make([]int32, 20)
		for rd := 0; rd < 25; rd++ {
			randomTx(bcast, driver, 0.25)
			net.StepSet(bcast, payload, nil, nil)
		}
		s := net.Stats()
		return lastRound == 24 && tx == s.Broadcasts && rx == s.Deliveries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStepStar(b *testing.B) {
	top := graph.Star(1 << 12)
	net := MustNew[int32](top.G, Config{Fault: ReceiverFaults, P: 0.3}, rng.New(1))
	tx := txOf(top.G.N(), 0)
	payload := make([]int32, top.G.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.StepSet(tx, payload, nil, nil)
	}
}

func BenchmarkStepDenseRandom(b *testing.B) {
	top := graph.GNP(1024, 0.02, rng.New(1))
	net := MustNew[int32](top.G, Config{Fault: SenderFaults, P: 0.3}, rng.New(2))
	tx := bitset.New(top.G.N())
	randomTx(tx, rng.New(3), 0.1)
	payload := make([]int32, top.G.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.StepSet(tx, payload, nil, nil)
	}
}
