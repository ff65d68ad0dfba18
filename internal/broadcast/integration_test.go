package broadcast

// Integration tests that cross-validate the packet-counting ("MDS
// abstraction") schedules against the real Reed–Solomon codec: the
// schedules assume any k distinct coded packets reconstruct the k
// messages; here the same radio executions carry real coded shards and the
// decoded bytes are compared to the originals.

import (
	"bytes"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/rs"
	"noisyradio/internal/rs16"
)

// TestStarCodingWithRealReedSolomon replays the Lemma 16 star schedule
// with actual RS shards as payloads: every leaf must reconstruct the exact
// source messages from whichever k shards survived its receiver faults.
func TestStarCodingWithRealReedSolomon(t *testing.T) {
	const (
		leaves     = 40
		k          = 16
		payloadLen = 24
		maxRounds  = 200 // also the number of coded shards; < rs.MaxShards
	)
	r := rng.New(11)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}

	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, payloadLen)
		r.Bytes(data[i])
	}
	code, err := rs.New(k, maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := code.Encode(data)
	if err != nil {
		t.Fatal(err)
	}

	top := graph.Star(leaves)
	net := radio.MustNew[int32](top.G, cfg, r)
	tx := bitset.New(top.G.N())
	payload := make([]int32, top.G.N())
	tx.Set(0)

	received := make([]map[int32][]byte, top.G.N())
	for v := range received {
		received[v] = make(map[int32][]byte)
	}
	for round := 0; round < maxRounds; round++ {
		payload[0] = int32(round)
		net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
			received[d.To][d.Payload] = shards[d.Payload]
		})
	}

	for v := 1; v <= leaves; v++ {
		if len(received[v]) < k {
			t.Fatalf("leaf %d received only %d shards after %d rounds", v, len(received[v]), maxRounds)
		}
		slots := make([][]byte, maxRounds)
		for idx, s := range received[v] {
			slots[idx] = s
		}
		got, err := code.Reconstruct(slots)
		if err != nil {
			t.Fatalf("leaf %d: %v", v, err)
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				t.Fatalf("leaf %d: message %d corrupted", v, i)
			}
		}
	}
}

// TestLossyLinkMetaRoundWithRealReedSolomon replays one meta-round of the
// Lemma 26 transformation with real shards: a batch of x messages is coded
// into a stream of ⌈x/(1-p)(1+η)⌉ shards over a lossy link, and the
// receiver reconstructs the batch from whatever arrived.
func TestLossyLinkMetaRoundWithRealReedSolomon(t *testing.T) {
	const (
		batch      = 32
		eta        = 0.5 // generous so a single meta-round suffices w.h.p.
		payloadLen = 8
	)
	cfg := radio.Config{Fault: radio.SenderFaults, P: 0.4}
	mlen := metaRoundLen(batch, cfg, eta)
	if mlen >= rs.MaxShards {
		t.Fatalf("meta-round %d exceeds shard budget", mlen)
	}
	r := rng.New(12)
	data := make([][]byte, batch)
	for i := range data {
		data[i] = make([]byte, payloadLen)
		r.Bytes(data[i])
	}
	code, err := rs.New(batch, mlen)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := code.Encode(data)
	if err != nil {
		t.Fatal(err)
	}

	top := graph.SingleLink()
	net := radio.MustNew[int32](top.G, cfg, r)
	tx := bitset.New(2)
	tx.Set(0)
	payload := []int32{0, 0}
	slots := make([][]byte, mlen)
	got := 0
	for round := 0; round < mlen; round++ {
		payload[0] = int32(round)
		net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
			slots[d.Payload] = shards[d.Payload]
			got++
		})
	}
	if got < batch {
		t.Fatalf("only %d/%d shards survived the meta-round (p=%.1f, mlen=%d)", got, batch, cfg.P, mlen)
	}
	decoded, err := code.Reconstruct(slots)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(decoded[i], data[i]) {
			t.Fatalf("message %d corrupted across the meta-round", i)
		}
	}
}

// TestStarCodingLargeKWithGF16 replays the star schedule far beyond the
// GF(2^8) shard ceiling: k=200 messages over up to 1200 distinct coded
// packets (rs16 over GF(2^16)), with every leaf decoding the exact source
// symbols. This removes any reliance on the counting abstraction at large
// k.
func TestStarCodingLargeKWithGF16(t *testing.T) {
	const (
		leaves    = 12
		k         = 200
		size      = 4
		maxRounds = 1200 // > 256: impossible with the GF(2^8) codec
	)
	r := rng.New(21)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	code, err := rs16.New(k, maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]uint16, k)
	for i := range data {
		data[i] = make([]uint16, size)
		for j := range data[i] {
			data[i][j] = uint16(r.Uint64())
		}
	}
	top := graph.Star(leaves)
	net := radio.MustNew[int32](top.G, cfg, r)
	tx := bitset.New(top.G.N())
	payload := make([]int32, top.G.N())
	tx.Set(0)

	slots := make([][][]uint16, top.G.N())
	counts := make([]int, top.G.N())
	for v := range slots {
		slots[v] = make([][]uint16, maxRounds)
	}
	// Shards are encoded lazily, once per broadcast round.
	shardCache := make(map[int32][]uint16, maxRounds)
	for round := 0; round < maxRounds; round++ {
		idx := int32(round)
		if _, ok := shardCache[idx]; !ok {
			s, err := code.EncodeShard(round, data)
			if err != nil {
				t.Fatal(err)
			}
			shardCache[idx] = s
		}
		payload[0] = idx
		net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
			slots[d.To][d.Payload] = shardCache[d.Payload]
			counts[d.To]++
		})
	}
	for v := 1; v <= leaves; v++ {
		if counts[v] < k {
			t.Fatalf("leaf %d received %d < k=%d shards", v, counts[v], k)
		}
		got, err := code.Reconstruct(slots[v])
		if err != nil {
			t.Fatalf("leaf %d: %v", v, err)
		}
		for i := range data {
			for j := range data[i] {
				if got[i][j] != data[i][j] {
					t.Fatalf("leaf %d: symbol (%d,%d) corrupted", v, i, j)
				}
			}
		}
	}
}

// TestCountingAbstractionMatchesRealDecodability: for the star schedule,
// the per-leaf round at which "k distinct packets received" (the counting
// abstraction) is exactly the round at which the real decoder first
// succeeds.
func TestCountingAbstractionMatchesRealDecodability(t *testing.T) {
	const (
		leaves    = 10
		k         = 8
		maxRounds = 120
	)
	r := rng.New(13)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	code, err := rs.New(k, maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = []byte{byte(i), byte(i + 1)}
	}
	shards, err := code.Encode(data)
	if err != nil {
		t.Fatal(err)
	}

	top := graph.Star(leaves)
	net := radio.MustNew[int32](top.G, cfg, r)
	tx := bitset.New(top.G.N())
	payload := make([]int32, top.G.N())
	tx.Set(0)

	counts := make([]int, top.G.N())
	countDone := make([]int, top.G.N()) // round of k-th reception per leaf
	slots := make([][][]byte, top.G.N())
	realDone := make([]int, top.G.N()) // first round the real decode works
	for v := range slots {
		slots[v] = make([][]byte, maxRounds)
		countDone[v], realDone[v] = -1, -1
	}
	for round := 0; round < maxRounds; round++ {
		payload[0] = int32(round)
		net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
			counts[d.To]++
			slots[d.To][d.Payload] = shards[d.Payload]
			if counts[d.To] == k && countDone[d.To] == -1 {
				countDone[d.To] = round
			}
			if realDone[d.To] == -1 {
				if _, err := code.Reconstruct(slots[d.To]); err == nil {
					realDone[d.To] = round
				}
			}
		})
	}
	for v := 1; v <= leaves; v++ {
		if countDone[v] == -1 {
			t.Fatalf("leaf %d never reached k receptions", v)
		}
		if countDone[v] != realDone[v] {
			t.Fatalf("leaf %d: counting says decodable at round %d, real decoder at %d",
				v, countDone[v], realDone[v])
		}
	}
}
