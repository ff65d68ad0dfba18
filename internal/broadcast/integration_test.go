package broadcast

// Integration tests that cross-validate the packet-counting ("MDS
// abstraction") schedules against real decoding: the schedules assume any
// k distinct coded packets reconstruct the k messages; here the same radio
// executions carry evaluation-form Reed–Solomon shards over GF(2^8), every
// reception goes through the exact Gaussian-elimination decoder of
// internal/rlnc, and the decoded bytes are compared to the originals.

import (
	"bytes"
	"fmt"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/gf256"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rlnc"
	"noisyradio/internal/rng"
)

// fieldPoints is the number of distinct evaluation points of GF(2^8), so
// the most distinct shards the code can emit.
const fieldPoints = 256

// rsShard returns shard i of the evaluation-form Reed–Solomon code of
// data over GF(2^8), for 0 <= i < fieldPoints: coefficients (1, α, α², …,
// α^(k−1)) at α = i, and payload Σ_j α^j·data[j]. Any k distinct shards
// form an invertible Vandermonde system. The decoder consumes what it is
// given, so every reception builds a fresh shard.
func rsShard(i int, data [][]byte) rlnc.Packet {
	p := rlnc.Packet{Coeffs: make([]byte, len(data)), Payload: make([]byte, len(data[0]))}
	x := byte(1)
	for j, m := range data {
		p.Coeffs[j] = x
		gf256.MulVec(p.Payload, m, x)
		x = gf256.Mul(x, byte(i))
	}
	return p
}

// receiveShard inserts shard i into dec as the nth distinct shard its node
// has received. It reports an error unless the shard was innovative
// exactly while the rank was below k and the decoder became decodable
// exactly at the k-th reception: the MDS property the counting schedules
// rest on.
func receiveShard(dec *rlnc.Decoder, i, nth int, data [][]byte) error {
	innovative, err := dec.InsertPacket(rsShard(i, data))
	if err != nil {
		return err
	}
	k := dec.K()
	if innovative != (nth <= k) || dec.CanDecode() != (nth >= k) {
		return fmt.Errorf("reception %d (shard %d): innovative %v, rank %d of %d", nth, i, innovative, dec.Rank(), k)
	}
	return nil
}

// checkDecoded fails the test unless dec decodes exactly data.
func checkDecoded(t *testing.T, who string, dec *rlnc.Decoder, data [][]byte) {
	t.Helper()
	got, err := dec.Decode()
	if err != nil {
		t.Fatalf("%s: %v", who, err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("%s: message %d corrupted", who, i)
		}
	}
}

// replayHubCoding replays the coding schedule of Lemmas 16 and 30 on a hub
// topology (node 0 broadcasts, every other node is a leaf: the star or
// the single link) for rounds rounds with real shards: round i's
// broadcast is shard i of data, and every leaf feeds each reception to
// its own decoder through receiveShard. It fails the test unless every
// leaf decodes data byte for byte, and returns the round at which each
// node's decoder reached rank k (the round the counting schedule counts
// the leaf done; -1 for the hub).
func replayHubCoding(t *testing.T, top graph.Topology, rounds int, cfg radio.Config, r *rng.Stream, data [][]byte) []int {
	t.Helper()
	if rounds > fieldPoints {
		t.Fatalf("%d rounds exceed the field's %d shards", rounds, fieldPoints)
	}
	k := len(data)
	n := top.G.N()
	net := radio.MustNew[int32](top.G, cfg, r)
	tx := bitset.New(n)
	tx.Set(0)
	payload := make([]int32, n)

	decs := make([]*rlnc.Decoder, n)
	received := make([]int, n)
	decoded := make([]int, n)
	for v := range decs {
		decs[v] = rlnc.NewDecoder(k, len(data[0]))
		decoded[v] = -1
	}
	for round := 0; round < rounds; round++ {
		payload[0] = int32(round)
		net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
			received[d.To]++
			if err := receiveShard(decs[d.To], int(d.Payload), received[d.To], data); err != nil {
				t.Fatalf("leaf %d: %v", d.To, err)
			}
			if decoded[d.To] == -1 && decs[d.To].CanDecode() {
				decoded[d.To] = round
			}
		})
	}
	for v := 1; v < n; v++ {
		if received[v] < k {
			t.Fatalf("leaf %d received only %d of k=%d shards in %d rounds", v, received[v], k, rounds)
		}
		checkDecoded(t, fmt.Sprintf("leaf %d", v), decs[v], data)
	}
	return decoded
}

// randomMessages draws k messages of size bytes each from r.
func randomMessages(r *rng.Stream, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		r.Bytes(data[i])
	}
	return data
}

// TestStarCodingWithRealReedSolomon replays the Lemma 16 star schedule
// with actual RS shards as payloads: every leaf must reconstruct the exact
// source messages from whichever k shards survived its receiver faults.
func TestStarCodingWithRealReedSolomon(t *testing.T) {
	const (
		leaves     = 40
		k          = 16
		payloadLen = 24
		maxRounds  = 200 // also the number of distinct shards
	)
	r := rng.New(11)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	replayHubCoding(t, graph.Star(leaves), maxRounds, cfg, r, randomMessages(r, k, payloadLen))
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
	r := rng.New(12)
	replayHubCoding(t, graph.SingleLink(), metaRoundLen(batch, cfg, eta), cfg, r, randomMessages(r, batch, payloadLen))
}

// TestStarCodingLargeK replays the star schedule at k = 200 messages, as
// far as GF(2^8) reaches: the hub broadcasts all 256 distinct shards at
// receiver p = 0.1, and every leaf decodes the exact source bytes from a
// 200×200 Vandermonde system.
func TestStarCodingLargeK(t *testing.T) {
	const (
		leaves = 12
		k      = 200
		size   = 8
	)
	r := rng.New(21)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.1}
	replayHubCoding(t, graph.Star(leaves), fieldPoints, cfg, r, randomMessages(r, k, size))
}

// TestCountingAbstractionMatchesRealDecodability: for the star schedule,
// the per-leaf round at which "k distinct packets received" (the counting
// abstraction) is exactly the round at which the real decoder first
// succeeds, and the registry's star-coding schedule, run on the same
// stream, ends at the round the last leaf decodes.
func TestCountingAbstractionMatchesRealDecodability(t *testing.T) {
	const (
		leaves    = 10
		k         = 8
		maxRounds = 120
		seed      = 13
	)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	data := make([][]byte, k)
	for i := range data {
		data[i] = []byte{byte(i), byte(i + 1)}
	}
	decoded := replayHubCoding(t, graph.Star(leaves), maxRounds, cfg, rng.New(seed), data)
	last := 0
	for v := 1; v <= leaves; v++ {
		last = max(last, decoded[v])
	}
	out, err := MustSchedule("star-coding").Run(graph.Topology{}, cfg, rng.New(seed),
		ScheduleParams{Leaves: leaves, K: k, Options: Options{MaxRounds: maxRounds}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success || out.Rounds != last+1 {
		t.Fatalf("star-coding: success=%v after %d rounds, want success after %d (the last leaf decoded in round %d)", out.Success, out.Rounds, last+1, last)
	}
}
