package radio

import (
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

func batchStreams(seed uint64, w int) []*rng.Stream {
	rnds := make([]*rng.Stream, w)
	for l := range rnds {
		rnds[l] = rng.NewFrom(seed, uint64(l))
	}
	return rnds
}

// TestPoolBatchKindSeparation: the pool keeps scalar and batch networks
// apart — a scalar checkout never hands back batch scratch, nor the
// reverse — while a pooled batch network serves any stream count: one
// stored after an 8-stream run comes back for a 2-stream checkout, and
// again for a 16-stream one.
func TestPoolBatchKindSeparation(t *testing.T) {
	g := graph.Path(16).G
	cfg := Config{Fault: ReceiverFaults, P: 0.3, Engine: Dense}
	var pool Pool[int32]

	b8, err := pool.GetBatch(g, cfg, batchStreams(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if b8.Width() != 8 {
		t.Fatalf("width = %d, want 8", b8.Width())
	}
	pool.PutBatch(b8)

	// A scalar Get for the same (graph, config) must construct fresh, not
	// dip into the batch freelist.
	n, err := pool.Get(g, cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(n)

	// A 2-stream batch Get reuses the network the 8-stream run left.
	b2, err := pool.GetBatch(g, cfg, batchStreams(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b8 {
		t.Fatal("pool did not reuse the batch network for another stream count")
	}
	if b2.Width() != 2 {
		t.Fatalf("width = %d, want 2", b2.Width())
	}
	pool.PutBatch(b2)

	again16, err := pool.GetBatch(g, cfg, batchStreams(4, MaxBatchWidth))
	if err != nil {
		t.Fatal(err)
	}
	if again16 != b8 || again16.Width() != MaxBatchWidth {
		t.Fatalf("pool did not reuse the batch network for %d streams", MaxBatchWidth)
	}
	again, err := pool.Get(g, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if again != n {
		t.Fatal("pool failed to reuse the scalar network")
	}
	if _, err := pool.GetBatch(g, cfg, batchStreams(6, MaxBatchWidth+1)); err == nil {
		t.Fatalf("GetBatch with %d streams succeeded", MaxBatchWidth+1)
	}
}

// TestPoolBatchGetEqualsNew: a batch network recycled through the pool
// behaves bit-identically to a freshly constructed one, also when the
// run that dirtied it had more streams.
func TestPoolBatchGetEqualsNew(t *testing.T) {
	top := graph.GNP(64, 0.2, rng.New(5))
	for _, draw := range []DrawContract{DrawV1, DrawV2} {
		cfg := Config{Fault: SenderFaults, P: 0.4, Engine: Dense, Draw: draw}
		const w = 4
		sched := batchSchedule(3, 0.3)
		roundsFor := func(int) int { return 25 }
		want := executeBatchLanes(t, top.G, cfg, 7, w, roundsFor, sched)

		var pool Pool[int32]
		dirty, err := pool.GetBatch(top.G, cfg, batchStreams(99, MaxBatchWidth))
		if err != nil {
			t.Fatal(err)
		}
		// Leave arbitrary state behind in every lane.
		tx := bitset.NewBlock(top.G.N(), MaxBatchWidth)
		for l := 0; l < MaxBatchWidth; l++ {
			tx.Set(l, l)
		}
		for i := 0; i < 9; i++ {
			dirty.StepBatch(tx, nil, nil, 1<<MaxBatchWidth-1, nil)
		}
		pool.PutBatch(dirty)

		rnds := batchStreams(7, w)
		recycled, err := pool.GetBatch(top.G, cfg, rnds)
		if err != nil {
			t.Fatal(err)
		}
		if recycled != dirty {
			t.Fatal("pool did not reuse the stored batch network")
		}
		n := top.G.N()
		tx2 := bitset.NewBlock(n, MaxBatchWidth)
		rx2 := bitset.NewBlock(n, MaxBatchWidth)
		for round := 0; round < 25; round++ {
			tx2.Reset()
			for l := 0; l < w; l++ {
				for v := 0; v < n; v++ {
					if sched(l, round, v) {
						tx2.Set(l, v)
					}
				}
			}
			recycled.StepBatch(tx2, nil, rx2, 0b1111, nil)
		}
		for l := 0; l < w; l++ {
			if recycled.LaneStats(l) != want[l].stats {
				t.Fatalf("%v lane %d: recycled stats diverged\nwant %+v\ngot  %+v", draw, l, want[l].stats, recycled.LaneStats(l))
			}
			got := laneSet(rx2, l)
			for wi, word := range want[l].rx.Words() {
				if got.Words()[wi] != word {
					t.Fatalf("%v lane %d: recycled rx diverged", draw, l)
				}
			}
			if next := rnds[l].Uint64(); next != want[l].nextDraw {
				t.Fatalf("%v lane %d: recycled stream position diverged", draw, l)
			}
		}
	}
}

// TestPoolBatchSkipsPerNodeP: per-node probability configs bypass the
// batch pool exactly as they do the scalar one.
func TestPoolBatchSkipsPerNodeP(t *testing.T) {
	top := graph.Path(4)
	cfg := Config{Fault: ReceiverFaults, P: 0.1, PerNodeP: make([]float64, 4), Engine: Dense}
	var pool Pool[int32]
	b1, err := pool.GetBatch(top.G, cfg, batchStreams(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pool.PutBatch(b1)
	b2, _ := pool.GetBatch(top.G, cfg, batchStreams(2, 2))
	if b1 == b2 {
		t.Fatal("per-node config was pooled")
	}
}

// TestPoolSharedCapsAcrossWidths: scalar and batch entries share the
// total cap and the eviction order.
func TestPoolSharedCapsAcrossWidths(t *testing.T) {
	cfg := Config{Fault: Faultless, Engine: Dense}
	var pool Pool[int32]
	for i := 0; i < poolTotalCap; i++ {
		g := graph.Path(4).G
		b, err := NewBatch[int32](g, cfg, batchStreams(uint64(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		pool.PutBatch(b)
	}
	if pool.size != poolTotalCap {
		t.Fatalf("pool size = %d, want %d", pool.size, poolTotalCap)
	}
	// A scalar Put at the total cap evicts the oldest batch entry rather
	// than being dropped.
	g := graph.Path(4).G
	n, err := New[int32](g, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(n)
	if pool.size != poolTotalCap {
		t.Fatalf("pool size after mixed eviction = %d, want %d", pool.size, poolTotalCap)
	}
	got, err := pool.Get(g, cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatal("scalar network was dropped instead of evicting the oldest batch entry")
	}
}
