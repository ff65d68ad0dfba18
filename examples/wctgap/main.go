// Worst-case topology gap demo (Theorem 24): on the WCT — the paper's
// hardest broadcast instance — adaptive routing pays two log factors per
// message (the Lemma 18 collision ceiling times the per-cluster star) while
// coding pays one, so the coding gap grows as Θ(log n).
//
//	go run ./examples/wctgap
package main

import (
	"fmt"
	"log"

	"noisyradio"
)

func main() {
	const k = 8
	cfg := noisyradio.Config{Fault: noisyradio.ReceiverFaults, P: 0.5}
	fmt.Printf("worst-case topology (WCT), k=%d messages, receiver faults p=%.1f\n\n", k, cfg.P)
	fmt.Printf("%8s %9s %10s  %14s  %14s  %6s\n", "target n", "actual n", "clusters", "routing rounds", "coding rounds", "gap")

	wctRouting := noisyradio.MustSchedule("wct-routing")
	wctCoding := noisyradio.MustSchedule("wct-coding")
	for _, n := range []int{512, 1024, 2048} {
		r := noisyradio.NewRand(uint64(100 + n))
		w := noisyradio.NewWCT(noisyradio.DefaultWCTParams(n), r)
		params := noisyradio.ScheduleParams{WCT: w, K: k}
		routing, err := noisyradio.Run(wctRouting, noisyradio.Topology{}, cfg, r, params)
		if err != nil || !routing.Success {
			log.Fatalf("routing n=%d: %v %+v", n, err, routing)
		}
		coding, err := noisyradio.Run(wctCoding, noisyradio.Topology{}, cfg, r, params)
		if err != nil || !coding.Success {
			log.Fatalf("coding n=%d: %v %+v", n, err, coding)
		}
		gap := float64(routing.Rounds) / float64(coding.Rounds)
		fmt.Printf("%8d %9d %10d  %14d  %14d  %6.2f\n",
			n, w.G.N(), w.NumClusters(), routing.Rounds, coding.Rounds, gap)
	}

	fmt.Println("\nEach WCT cluster hears a collision-free packet in only ~1/log n of the")
	fmt.Println("rounds (Lemma 18); routing must then win a per-cluster coupon race per")
	fmt.Println("message (Lemma 15) while coding banks any k packets (Lemma 23). The gap")
	fmt.Println("column grows with log n — the paper's headline Theorem 24.")
}
