// Trace demo: record a Robust FASTBC broadcast round by round on a small
// noisy path and render the execution timeline — the same machinery behind
// `noisysim -demo`. Useful for *seeing* the odd-round Decay steps and the
// even-round block waves interleave.
//
//	go run ./examples/tracedemo
package main

import (
	"fmt"
	"log"

	"noisyradio"
	"noisyradio/internal/trace"
)

func main() {
	top := noisyradio.Path(30)
	cfg := noisyradio.Config{Fault: noisyradio.ReceiverFaults, P: 0.3}
	rec := trace.NewRecorder(top.G.N())

	res, err := noisyradio.Run(noisyradio.MustSchedule("robust-fastbc"), top, cfg, noisyradio.NewRand(7),
		noisyradio.ScheduleParams{Options: noisyradio.Options{Trace: rec.Observe}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("robust-fastbc on %s, %s p=%.1f\n", top.Name, cfg.Fault, cfg.P)
	fmt.Printf("result: success=%v rounds=%d\n", res.Success, res.Rounds)
	fmt.Println(rec.Summary())
	fmt.Println()
	fmt.Print(rec.Timeline(30))
	fmt.Println("\nlegend: B = broadcast, r = received, . = idle.")
	fmt.Println("Watch the message hop along consecutive columns (the block wave)")
	fmt.Println("and the occasional bursty rows (the interleaved Decay steps).")
}
