package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/radio"
	"noisyradio/internal/serve"
)

// submitSchedule runs a -schedule job on a remote sweep service instead
// of the local sweep pool: it builds the canonical job spec from the same
// flags a local run uses, validates it client-side against the registry
// and the radio config (unknown schedules, invalid noise specs and
// malformed workloads fail before any network traffic), streams the
// service's snapshot lines as they arrive and renders the terminal result
// in the local -schedule output format. base carries the draw contract's
// parameters; drawName is the -drawcontract flag as the spec records it.
func submitSchedule(out *os.File, baseURL, name, topology string, n, k int, p float64, faultName string, drawName string, trials int, seed uint64, base radio.Config) error {
	sched, err := broadcast.LookupSchedule(name)
	if err != nil {
		names := strings.Join(broadcast.ScheduleNames(), ", ")
		return fmt.Errorf("%w (use -schedule list; known: %s)", err, names)
	}
	if _, err := parseFault(faultName, p, base); err != nil {
		return err
	}
	// The same workload resolution the server will perform — run it here
	// first so bad parameters are a usage error, not a round trip.
	top, params, err := experiments.ScheduleWorkload(sched, topology, n, k, seed)
	if err != nil {
		return err
	}
	if trials <= 0 {
		trials = 20
	}
	spec := benchreport.JobSpec{
		Schedule: name,
		Topology: topology,
		N:        n,
		Fault:    faultName,
		P:        p,
		Draw:     drawName,
		Seed:     seed,
		Trials:   trials,
	}
	if sched.Kind == broadcast.MultiMessage {
		spec.K = k
	}
	if faultName == "none" {
		spec.P = 0
	}
	switch drawName {
	case "v3":
		spec.BurstLen, spec.BurstBadP = base.Burst.Len, base.Burst.BadP
	case "v4":
		spec.JamQ, spec.JamRadius, spec.JamBall = base.Jam.Q, base.Jam.Radius, base.Jam.Ball
	}

	fmt.Fprintf(out, "schedule: %s (%s, %s)\n", sched.Name, sched.Kind, sched.Ref)
	desc := "synthesised topology"
	if pt := sched.PlanTopology(top, params); pt.G != nil {
		desc = fmt.Sprintf("%s, %d nodes", pt.Name, pt.G.N())
	}
	fmt.Fprintf(out, "workload: %s, noise %s p=%.2f, trials %d, seed %d\n", desc, faultName, spec.P, trials, seed)
	fmt.Fprintf(out, "submit: %s job %s\n", baseURL, spec.PlanKey())

	start := time.Now()
	res, err := serve.Submit(context.Background(), baseURL, spec, func(line serve.Line) {
		if line.Stats == nil {
			return
		}
		mean := "-"
		if line.Stats.Mean != nil {
			mean = fmt.Sprintf("%.1f", *line.Stats.Mean)
		}
		fmt.Fprintf(out, "snapshot %d/%d trials: mean %s\n", line.Trials, trials, mean)
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "cache: %s\n", res.Cache)
	st := res.Stats
	fmt.Fprintf(out, "success: %d/%d trials\n", st.N, trials)
	if st.N > 0 && st.Mean != nil && st.CI95 != nil {
		fmt.Fprintf(out, "rounds: mean %.1f ±%.1f (95%% CI)\n", *st.Mean, *st.CI95)
		if spec.K > 0 {
			fmt.Fprintf(out, "throughput: %.4f messages/round (k=%d)\n", float64(spec.K)/(*st.Mean), spec.K)
		}
	}
	fmt.Fprintf(out, "(%d trials in %.2fs)\n", trials, elapsed.Seconds())
	return nil
}
