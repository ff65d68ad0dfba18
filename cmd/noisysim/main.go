// Command noisysim runs the reproduction experiments for "Broadcasting in
// Noisy Radio Networks" (PODC 2017) and prints their tables.
//
// Usage:
//
//	noisysim -list                 # list experiments
//	noisysim -exp E9               # run one experiment
//	noisysim -exp all              # run the whole suite (EXPERIMENTS.md data)
//	noisysim -exp E9 -quick        # reduced sweep for a fast look
//	noisysim -exp E13 -trials 12 -seed 7 -workers 8
//	noisysim -exp E9 -engine dense # force the bit-parallel radio engine
//	noisysim -exp all -quick -benchjson BENCH_sweep.json
//
// Every experiment schedules all of its table rows on one shared worker
// pool (the sim.Sweep row-parallel scheduler): trials from every row
// interleave, so rows with tiny trial counts cannot serialise the table.
// Two knobs tune the scheduler, neither of which changes any output:
//
//   - -workers sets the pool size (0 = GOMAXPROCS);
//   - -rowworkers bounds how many rows are in flight at once (0 = all),
//     trading peak scratch memory against row-level parallelism.
//
// Tables are bit-identical at every -workers/-rowworkers setting and
// across engines; a regression test (internal/experiments golden test) and
// a CI determinism job enforce this.
//
// The -engine flag selects the radio execution engine (auto | sparse |
// dense | implicit). Results are bit-identical across engines — auto runs
// every complete graph (the one family with a closed form) implicitly and
// picks between the others by average degree, dense forces word-parallel
// channel resolution, sparse forces CSR neighbour walking, implicit
// resolves each round from the complete graph's broadcaster total
// without any stored adjacency. The complete graph stores no adjacency,
// so sparse and dense fall back to implicit on it at every n. Purely a
// performance knob; the engine each schedule row resolved to is recorded
// in the -benchjson report.
//
// The -drawcontract flag selects the fault-draw contract version (v1 |
// v2 | v3 | v4). v1 — the default and today's behaviour — draws one
// Bernoulli coin per fault site in canonical order; v2 draws geometric
// skip distances over the same site order, visiting only the faulty sites
// (a large speedup at small p on large fault-site counts); v3 is the
// Gilbert–Elliott burst contract — a two-state good/bad process walks the
// site order, sites in a bad phase fault with probability -burstbadp, and
// the burst shape (-burstlen mean bad-phase length) is chosen so the
// stationary per-site fault rate is still exactly -p; v4 is the region
// jamming contract — each round, with probability -jamq, a drawn center
// and its surrounding region (a contiguous id window of radius -jamradius,
// or the center's graph neighbourhood with -jamball) fault outright, while
// sites outside the jam keep drawing independent v1 coins. Unlike -engine
// this is NOT a pure performance knob: each version is its own
// deterministic universe. Within a version, outputs are bit-identical
// across engines and workers; across versions the fault
// draws differ, so each contract's runs are compared against its own
// committed goldens (the CI determinism job checks all of them).
//
// The -schedule flag exposes the broadcast Schedule registry directly:
//
//	noisysim -schedule list            # list every registered schedule
//	noisysim -schedule decay -n 256 -p 0.3 -fault receiver -trials 50
//	noisysim -schedule star-coding -n 64 -k 16 -trials 100
//
// A schedule run executes -trials Monte-Carlo trials of one registry
// entry on a size--n workload (a path for topology-taking schedules, n
// leaves for the star, a WCT instance for the WCT schedules, a length-n
// pipeline for the path schedules) and prints the round statistics plus
// the radio engine the row ran on.
//
// The -benchjson flag writes a machine-readable performance report (suite
// wall clock, per-experiment seconds, rows/sec, allocations per trial) to
// the given path after the run. CI runs the quick suite with -benchjson on
// every push and fails if wall clock regresses more than the gate
// threshold against the checked-in baseline (see cmd/benchgate).
//
// Demo mode traces one small broadcast round by round:
//
//	noisysim -demo decay -n 24 -p 0.3 -fault receiver -seed 3
//	noisysim -demo robust-fastbc -n 40 -fault sender -p 0.5
//
// The -topology flag shapes the workload graph for demo and
// topology-taking schedule runs (path | complete | star | cycle | grid |
// hypercube; default path). Every family is stored as CSR except
// complete, which is its closed form at every n — no adjacency is
// materialized, so runs scale to node counts where a bit matrix or CSR
// cannot exist — and runs on the implicit engine. Every topology-taking
// schedule runs on every family at any n:
//
//	noisysim -demo decay -topology complete -n 100000 -fault sender -p 0.1
//	noisysim -schedule fastbc -topology complete -n 100000 -trials 4 -fault receiver -p 0.1
//	noisysim -schedule fastbc -topology grid -n 99856 -trials 2 -fault receiver -p 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/serve"
	"noisyradio/internal/sim"
	"noisyradio/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "noisysim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("noisysim", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "", "experiment id (E1..E19, F1, F2, A1..A3) or 'all'")
		list      = fs.Bool("list", false, "list available experiments")
		schedName = fs.String("schedule", "", "run one broadcast schedule from the registry by name, or 'list'")
		submit    = fs.String("submit", "", "submit the -schedule job to a sweep service at this base URL (e.g. http://localhost:8091) instead of executing locally")
		trials    = fs.Int("trials", 0, "Monte-Carlo trials per row (0 = experiment/schedule default)")
		seed      = fs.Uint64("seed", 1, "base random seed")
		workers   = fs.Int("workers", 0, "shared worker pool size for each table (0 = GOMAXPROCS)")
		rowWkrs   = fs.Int("rowworkers", 0, "max table rows in flight at once (0 = all); memory/scheduling knob, output identical")
		quick     = fs.Bool("quick", false, "reduced sweeps and trial counts")
		engine    = fs.String("engine", "auto", "radio execution engine: auto | sparse | dense | implicit (results identical, speed differs)")
		drawC     = fs.String("drawcontract", "v1", "fault-draw contract version: v1 (per-site Bernoulli) | v2 (geometric skip) | v3 (Gilbert-Elliott bursts) | v4 (region jamming); versions are separate deterministic universes")
		burstLen  = fs.Float64("burstlen", 0, "v3: mean bad-phase length in sites (0 = default 8)")
		burstBadP = fs.Float64("burstbadp", 0, "v3: fault probability inside a bad phase (0 = default 0.5; must exceed -p)")
		jamQ      = fs.Float64("jamq", 0, "v4: per-round jam probability (0 = default 0.05)")
		jamRadius = fs.Int("jamradius", 0, "v4: jam region radius around the drawn center (0 = default 8)")
		jamBall   = fs.Bool("jamball", false, "v4: jam the center's graph neighbourhood instead of a contiguous id window")
		asJSON    = fs.Bool("json", false, "emit experiment tables as a JSON array")
		benchOut  = fs.String("benchjson", "", "write a machine-readable performance report (wall clock, rows/sec, allocs/trial, chosen plans) to this path")
		demo      = fs.String("demo", "", "trace one run of an algorithm: decay | fastbc | robust-fastbc")
		topology  = fs.String("topology", "path", "demo/schedule: workload graph: path | complete | star | cycle | grid | hypercube (complete stores no adjacency and runs implicit at every n)")
		demoN     = fs.Int("n", 24, "demo/schedule: workload size (node count, WCT target size)")
		demoK     = fs.Int("k", 8, "schedule: message count for multi-message schedules")
		demoP     = fs.Float64("p", 0.3, "demo/schedule: fault probability")
		faultMd   = fs.String("fault", "receiver", "demo/schedule: fault model: none | sender | receiver")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := radio.ParseEngine(*engine)
	if err != nil {
		return err
	}
	dc, err := radio.ParseDrawContract(*drawC)
	if err != nil {
		return err
	}
	// The base radio configuration every noisy network of this invocation
	// inherits: engine, contract version and the contract's parameters
	// (zero fields select the radio defaults; non-selected contracts ignore
	// theirs).
	base := radio.Config{
		Engine: eng,
		Draw:   dc,
		Burst:  radio.BurstParams{Len: *burstLen, BadP: *burstBadP},
		Jam:    radio.JamParams{Q: *jamQ, Radius: *jamRadius, Ball: *jamBall},
	}
	if *trials < 0 {
		return fmt.Errorf("-trials must be >= 0, got %d", *trials)
	}
	if *demo != "" {
		return runDemo(out, *demo, *topology, *demoN, *demoP, *faultMd, *seed, base)
	}
	if *schedName != "" {
		if *schedName == "list" {
			for _, s := range broadcast.Schedules() {
				fmt.Fprintf(out, "%-26s %-15s %s\n", s.Name, s.Kind, s.Ref)
			}
			return nil
		}
		if *submit != "" {
			return submitSchedule(out, *submit, *schedName, *topology, *demoN, *demoK, *demoP, *faultMd, *drawC, *trials, *seed, *burstLen, *burstBadP, *jamQ, *jamRadius, *jamBall)
		}
		return runSchedule(out, *schedName, *topology, *demoN, *demoK, *demoP, *faultMd, *trials, *seed, *workers, base)
	}
	if *submit != "" {
		return fmt.Errorf("-submit requires -schedule (the sweep service runs registry schedules)")
	}
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Extras() {
			fmt.Fprintf(out, "%-4s %s (extra; not part of -exp all)\n", e.ID, e.Title)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list, -schedule)")
	}
	cfg := experiments.Config{
		Trials:     *trials,
		Seed:       *seed,
		Workers:    *workers,
		RowWorkers: *rowWkrs,
		Quick:      *quick,
		Engine:     eng,
		Draw:       dc,
		Burst:      base.Burst,
		Jam:        base.Jam,
	}
	var entries []experiments.Entry
	if strings.EqualFold(*exp, "all") {
		entries = experiments.Registry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			entries = append(entries, e)
		}
	}

	bench := benchreport.Report{
		Suite:        *exp,
		Quick:        *quick,
		Engine:       eng.String(),
		DrawContract: dc.String(),
		Seed:         *seed,
		Workers:      *workers,
		RowWorkers:   *rowWkrs,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
	}
	var memBefore runtime.MemStats
	var benchFile *os.File
	if *benchOut != "" {
		// Open the report file before the suite runs: an unwritable path
		// must fail fast, not after minutes of Monte-Carlo work.
		f, err := os.Create(*benchOut)
		if err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
		benchFile = f
		defer benchFile.Close()
		runtime.ReadMemStats(&memBefore)
	}
	trialsBefore := sim.TotalTrials()
	suiteStart := time.Now()

	tables := make([]experiments.Table, 0, len(entries))
	for _, e := range entries {
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Seconds()
		bench.Experiments = append(bench.Experiments, benchreport.ExpSeconds{ID: e.ID, Seconds: elapsed, Rows: len(tbl.Rows)})
		bench.Rows += len(tbl.Rows)
		tables = append(tables, tbl)
		if !*asJSON {
			fmt.Fprint(out, tbl.String())
			fmt.Fprintf(out, "(%s in %.1fs)\n\n", e.ID, elapsed)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			return err
		}
	}

	if benchFile != nil {
		bench.WallSeconds = time.Since(suiteStart).Seconds()
		bench.Tables = len(tables)
		if bench.WallSeconds > 0 {
			bench.RowsPerSec = float64(bench.Rows) / bench.WallSeconds
		}
		bench.Trials = sim.TotalTrials() - trialsBefore
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		if bench.Trials > 0 {
			bench.AllocsPerTrial = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(bench.Trials)
			bench.BytesPerTrial = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(bench.Trials)
		}
		// Engine microbenchmarks ride along in the report (~0.3s): suite
		// wall clock mixes scheduling, coding and statistics, so per-round
		// engine regressions need their own gated numbers. Run after the
		// wall-clock and allocation windows close so their setup doesn't
		// pollute the suite's numbers. The sweep-service cache microbench
		// (cold vs cached submission of one representative job) rides along
		// the same way for the benchgate -min-cachehit-speedup floor.
		bench.Microbench = append(radio.EngineMicrobench(), serve.CacheMicrobench()...)
		// The execution plans the sweeps chose (the engine per schedule
		// row) ride along so the engine choices are inspectable in the
		// artifact.
		bench.Plans = sim.PlanLog()
		if err := bench.Write(benchFile); err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
	}
	return nil
}

// parseFault converts the -fault flag plus probability into a radio
// config, on top of the invocation's base (engine, draw contract and its
// parameters).
func parseFault(faultName string, p float64, base radio.Config) (radio.Config, error) {
	cfg := base
	fault, err := radio.ParseFaultModel(faultName)
	if err != nil {
		return cfg, err
	}
	cfg.Fault = fault
	if fault != radio.Faultless {
		cfg.P = p
	}
	return cfg, nil
}

// runSchedule runs -trials Monte-Carlo trials of one registry schedule on
// the sweep scheduler and prints the round statistics and the radio
// engine the row ran on.
func runSchedule(out *os.File, name, topology string, n, k int, p float64, faultName string, trials int, seed uint64, workers int, base radio.Config) error {
	sched, err := broadcast.LookupSchedule(name)
	if err != nil {
		names := strings.Join(broadcast.ScheduleNames(), ", ")
		return fmt.Errorf("%w (use -schedule list; known: %s)", err, names)
	}
	cfg, err := parseFault(faultName, p, base)
	if err != nil {
		return err
	}
	top, params, err := experiments.ScheduleWorkload(sched, topology, n, k, seed)
	if err != nil {
		return err
	}
	if trials <= 0 {
		trials = 20
	}

	sw := sim.NewSweep(sim.SweepConfig{Workers: workers})
	// Snapshot the process plan log so only this run's plans are printed
	// (earlier runs in the same process may have recorded their own).
	before := map[benchreport.Plan]int{}
	for _, plan := range sim.PlanLog() {
		counted := plan
		counted.Count = 0
		before[counted] = plan.Count
	}
	row := sw.AddSchedule(sched, top, cfg, params, trials, seed, func(o broadcast.Outcome) (float64, error) {
		if !o.Success {
			return math.NaN(), nil // failed trials excluded from the mean, counted below
		}
		return float64(o.Rounds), nil
	})
	start := time.Now()
	if err := sw.Run(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "schedule: %s (%s, %s)\n", sched.Name, sched.Kind, sched.Ref)
	desc := "synthesised topology"
	if pt := sched.PlanTopology(top, params); pt.G != nil {
		desc = fmt.Sprintf("%s, %d nodes", pt.Name, pt.G.N())
	}
	fmt.Fprintf(out, "workload: %s, noise %s p=%.2f, trials %d, seed %d\n", desc, cfg.Fault, cfg.P, trials, seed)
	for _, plan := range sim.PlanLog() {
		key := plan
		key.Count = 0
		if plan.Count > before[key] {
			fmt.Fprintf(out, "plan: engine %s\n", plan.Engine)
		}
	}
	acc := row.Acc()
	succeeded := acc.N()
	fmt.Fprintf(out, "success: %d/%d trials\n", succeeded, trials)
	if succeeded > 0 {
		fmt.Fprintf(out, "rounds: mean %.1f ±%.1f (95%% CI)\n", row.Mean(), row.CI95())
		if params.K > 0 {
			fmt.Fprintf(out, "throughput: %.4f messages/round (k=%d)\n", float64(params.K)/row.Mean(), params.K)
		}
	}
	fmt.Fprintf(out, "(%d trials in %.2fs)\n", trials, elapsed.Seconds())
	return nil
}

// runDemo traces one single-message broadcast on the -topology workload
// and renders the round-by-round timeline.
func runDemo(out *os.File, algo, topology string, n int, p float64, faultName string, seed uint64, base radio.Config) error {
	if n < 2 {
		return fmt.Errorf("demo needs -n >= 2, got %d", n)
	}
	cfg, err := parseFault(faultName, p, base)
	if err != nil {
		return err
	}
	top, err := experiments.WorkloadTopology(topology, n)
	if err != nil {
		return err
	}
	if algo != "decay" && algo != "fastbc" && algo != "robust-fastbc" {
		return fmt.Errorf("unknown algorithm %q (decay|fastbc|robust-fastbc)", algo)
	}
	rec := trace.NewRecorder(top.G.N())
	res, err := broadcast.MustSchedule(algo).Run(top, cfg, rng.New(seed), broadcast.ScheduleParams{Options: broadcast.Options{Trace: rec.Observe}})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s on %s, %s p=%.2f, seed %d\n", algo, top.Name, cfg.Fault, cfg.P, seed)
	fmt.Fprintf(out, "result: success=%v rounds=%d informed=%d\n", res.Success, res.Rounds, res.Done)
	fmt.Fprintf(out, "channel: %+v\n", res.Channel)
	fmt.Fprintf(out, "%s\n\n", rec.Summary())
	fmt.Fprint(out, rec.Timeline(40))
	return nil
}
