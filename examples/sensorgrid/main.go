// Sensor-grid scenario: a base station floods k sensor-calibration messages
// through a lossy wireless grid using random linear network coding on top
// of Decay (Lemma 12). Every node re-mixes what it has heard; the payloads
// are verified bit-for-bit at the far corner after decoding.
//
//	go run ./examples/sensorgrid
package main

import (
	"bytes"
	"fmt"
	"log"

	"noisyradio"
)

func main() {
	const (
		side       = 8  // 8×8 sensor grid
		k          = 16 // calibration messages
		payloadLen = 16 // bytes per message
	)
	top := noisyradio.Grid(side, side)
	cfg := noisyradio.Config{Fault: noisyradio.SenderFaults, P: 0.25}
	r := noisyradio.NewRand(2024)

	msgs := noisyradio.RandomMessages(k, payloadLen, r)
	fmt.Printf("flooding %d messages of %dB through a %dx%d grid, %s p=%.2f\n",
		k, payloadLen, side, side, cfg.Fault, cfg.P)

	res, decoded, err := noisyradio.RLNCBroadcast(top, cfg, msgs, noisyradio.RLNCDecay, r)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Success {
		log.Fatalf("broadcast incomplete: %d/%d nodes decoded after %d rounds", res.Done, top.G.N(), res.Rounds)
	}
	for i := range msgs {
		if !bytes.Equal(decoded[i], msgs[i]) {
			log.Fatalf("message %d corrupted in transit", i)
		}
	}

	fmt.Printf("\nall %d nodes decoded all %d messages in %d rounds\n", res.Done, k, res.Rounds)
	fmt.Printf("throughput: %.3f messages/round (Lemma 12 promises Ω(1/log n))\n", res.Throughput(k))
	fmt.Printf("channel: %d broadcasts, %d deliveries, %d collisions, %d sender-fault losses\n",
		res.Channel.Broadcasts, res.Channel.Deliveries, res.Channel.Collisions, res.Channel.SenderFaults)
	fmt.Println("payloads verified bit-for-bit after Gaussian-elimination decode")
}
