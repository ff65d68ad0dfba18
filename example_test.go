package noisyradio_test

import (
	"fmt"

	"noisyradio"
)

// Broadcast a single message through a noisy grid with the paper's new
// Robust FASTBC algorithm.
func ExampleRun_robustFASTBC() {
	top := noisyradio.Grid(8, 8)
	cfg := noisyradio.Config{Fault: noisyradio.ReceiverFaults, P: 0.3}
	res, err := noisyradio.Run(noisyradio.MustSchedule("robust-fastbc"), top, cfg, noisyradio.NewRand(1),
		noisyradio.ScheduleParams{})
	if err != nil {
		panic(err)
	}
	fmt.Println("success:", res.Success)
	fmt.Println("all informed:", res.Done == top.G.N())
	// Output:
	// success: true
	// all informed: true
}

// Decay needs no topology knowledge and survives noise as-is (Lemma 9).
func ExampleRun_decay() {
	top := noisyradio.Path(32)
	res, err := noisyradio.Run(noisyradio.MustSchedule("decay"), top,
		noisyradio.Config{Fault: noisyradio.SenderFaults, P: 0.2}, noisyradio.NewRand(7), noisyradio.ScheduleParams{})
	if err != nil {
		panic(err)
	}
	fmt.Println("success:", res.Success)
	// Output:
	// success: true
}

// Multi-message broadcast with random linear network coding (Lemma 12):
// every node decodes all k messages; payloads survive bit-for-bit.
func ExampleRLNCBroadcast() {
	top := noisyradio.Star(6)
	r := noisyradio.NewRand(3)
	msgs := noisyradio.RandomMessages(4, 8, r)
	res, decoded, err := noisyradio.RLNCBroadcast(top,
		noisyradio.Config{Fault: noisyradio.ReceiverFaults, P: 0.25}, msgs, noisyradio.RLNCDecay, r)
	if err != nil {
		panic(err)
	}
	intact := res.Success
	for i := range msgs {
		for j := range msgs[i] {
			if decoded[i][j] != msgs[i][j] {
				intact = false
			}
		}
	}
	fmt.Println("decoded intact:", intact)
	// Output:
	// decoded intact: true
}

// The Theorem 17 star gap in three lines: coding finishes far ahead of the
// best adaptive routing under receiver faults.
func ExampleRun_starCoding() {
	cfg := noisyradio.Config{Fault: noisyradio.ReceiverFaults, P: 0.5}
	params := noisyradio.ScheduleParams{Leaves: 512, K: 32}
	routing, _ := noisyradio.Run(noisyradio.MustSchedule("star-routing"), noisyradio.Topology{}, cfg, noisyradio.NewRand(4), params)
	coding, _ := noisyradio.Run(noisyradio.MustSchedule("star-coding"), noisyradio.Topology{}, cfg, noisyradio.NewRand(4), params)
	fmt.Println("coding faster:", coding.Rounds < routing.Rounds/2)
	// Output:
	// coding faster: true
}

// Build the worst-case topology of Section 5.1.2 and check the Lemma 18
// structure: everything sits within two hops of the source.
func ExampleNewWCT() {
	w := noisyradio.NewWCT(noisyradio.DefaultWCTParams(512), noisyradio.NewRand(5))
	fmt.Println("radius:", w.G.Eccentricity(w.Source))
	fmt.Println("has clusters:", w.NumClusters() > 0)
	// Output:
	// radius: 2
	// has clusters: true
}

// Run a registered experiment programmatically.
func ExampleRunExperiment() {
	tbl, err := noisyradio.RunExperiment("F2", noisyradio.ExperimentConfig{Quick: true, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(tbl.ID, "rows:", len(tbl.Rows) > 0)
	// Output:
	// F2 rows: true
}
