// Coding gap demo (Theorem 17): on the star topology with receiver faults,
// Reed–Solomon coding broadcasts k messages in Θ(k) rounds while the best
// adaptive routing needs Θ(k log n) — a Θ(log n) throughput gap that grows
// visibly as the star widens.
//
//	go run ./examples/codinggap
package main

import (
	"fmt"
	"log"

	"noisyradio"
)

func main() {
	const k = 64
	cfg := noisyradio.Config{Fault: noisyradio.ReceiverFaults, P: 0.5}
	fmt.Printf("star topology, k=%d messages, receiver faults p=%.1f\n\n", k, cfg.P)
	fmt.Printf("%8s  %14s  %14s  %8s\n", "leaves", "routing rounds", "coding rounds", "gap")

	starRouting := noisyradio.MustSchedule("star-routing")
	starCoding := noisyradio.MustSchedule("star-coding")
	for _, leaves := range []int{64, 256, 1024, 4096} {
		r := noisyradio.NewRand(uint64(7 + leaves))
		params := noisyradio.ScheduleParams{Leaves: leaves, K: k}
		routing, err := noisyradio.Run(starRouting, noisyradio.Topology{}, cfg, r, params)
		if err != nil || !routing.Success {
			log.Fatalf("routing leaves=%d: %v %+v", leaves, err, routing)
		}
		coding, err := noisyradio.Run(starCoding, noisyradio.Topology{}, cfg, r, params)
		if err != nil || !coding.Success {
			log.Fatalf("coding leaves=%d: %v %+v", leaves, err, coding)
		}
		gap := float64(routing.Rounds) / float64(coding.Rounds)
		fmt.Printf("%8d  %14d  %14d  %8.2f\n", leaves, routing.Rounds, coding.Rounds, gap)
	}

	fmt.Println("\nRouting must repeat each message until the unluckiest leaf hears it")
	fmt.Println("(Θ(log n) repetitions, Lemma 15); coding sends fresh packets every round")
	fmt.Println("and any k of them decode (Lemma 16). The gap column grows with log n.")
}
