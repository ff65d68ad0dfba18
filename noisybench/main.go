// Command noisybench is the repository's benchmark. It runs one workload
// (or all of them) against the simulator and the sweep service in this
// process, checks the outputs, and prints every metric as
//
//	<workload> <metric> <value> <unit> [n=<samples>]
//
// followed by one JSON line with the metrics BENCHMARK.json names:
// its end-to-end metrics when untraced, its per-layer metrics with
// --trace 1. Each layer is measured from outside, by timing calls into
// the public functions of internal/experiments, internal/serve,
// internal/sim, internal/broadcast and internal/radio. See README.md.
//
// Usage, from the repository root:
//
//	bash noisybench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/sim"
)

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(seed uint64, root string) (instance, error)
}

// instance is a workload set up for one seed.
type instance interface {
	// units lists the requests of one pass, in execution order.
	units() []unit
	// extras returns the workload's own metrics from a measured phase;
	// span-derived ones when the phase was traced.
	extras(ph *phase) ([]metric, error)
	// verify checks outputs against an independent reference.
	verify() error
}

var workloads = []workload{
	{name: "paper-suite", setup: setupPaperSuite},
	{name: "dense-lockstep", setup: setupDenseLockstep},
	{name: "large-n", setup: setupLargeN},
	{name: "serve-mix", setup: setupServeMix},
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
}

// benchDef is the part of BENCHMARK.json the program reads: which metrics
// the result line carries, with their units and bounds.
type benchDef struct {
	EndToEnd []defMetric `json:"end_to_end"`
	PerLayer []defMetric `json:"per_layer"`
}

type defMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type options struct {
	seed    uint64
	seconds int
	trace   bool
	root    string
	out     string
}

// workloadResult is one workload's run.
type workloadResult struct {
	Workload  string             `json:"workload"`
	SetupS    []float64          `json:"setup_s"`
	SetupRawS []float64          `json:"setup_raw_s"`
	MeasureS  float64            `json:"measure_s"`
	Units     int                `json:"unit_executions"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   []metric           `json:"metrics"`
	Plans     []benchreport.Plan `json:"plans"`
	// Executions are the untraced unit executions, in order.
	Executions []execRecord `json:"executions"`
}

// execRecord is one unit execution in the run record.
type execRecord struct {
	Unit       string  `json:"unit"`
	Seconds    float64 `json:"seconds"`
	HostSpeed  float64 `json:"host_speed"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "noisybench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("noisybench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: paper-suite | dense-lockstep | large-n | serve-mix | all")
		seed    = fs.Uint64("seed", 1, "seed the workload inputs are generated from")
		seconds = fs.Int("seconds", 25, "seconds each workload measures for")
		trace   = fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
		root    = fs.String("root", ".", "repository root (holds BENCHMARK.json and the goldens)")
		out     = fs.String("out", ".bench_build", "directory for trace output (spans, CPU profiles)")
		record  = fs.String("json", "", "write the run record (seed, plans, every metric with unit and bound) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	def, err := loadBenchDef(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, out: *out}
	want := def.EndToEnd
	if o.trace {
		want = def.PerLayer
	}

	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	var results []*workloadResult
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, res)
		for _, m := range res.Metrics {
			extra := ""
			if m.Samples > 0 {
				extra = fmt.Sprintf(" n=%d", m.Samples)
			}
			fmt.Printf("%s %s %s %s%s\n", w.name, m.Name, formatValue(m.Value), m.Unit, extra)
		}
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, e)
		}
		byName := map[string]metric{}
		for _, m := range res.Metrics {
			byName[m.Name] = m
		}
		for _, d := range want {
			m, ok := byName[d.Name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
			}
			if m.Unit != d.Unit {
				return fmt.Errorf("%s: metric %s is measured in %s, BENCHMARK.json says %s", w.name, d.Name, m.Unit, d.Unit)
			}
			key := d.Name
			if len(selected) > 1 {
				key = w.name + "/" + d.Name
			}
			line.Metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		line.Correct = line.Correct && res.Failed == 0
	}
	if *record != "" {
		if err := writeRecord(*record, o, def, results); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%d of %d requests failed their checks", line.Failed, line.Attempted)
	}
	return nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func loadBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// runWorkload sets the workload up setupReps times, measures it, and
// verifies its outputs.
func runWorkload(w workload, o options) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name}
	var hs *speedSampler
	if !o.trace {
		var err error
		if hs, err = startSpeedSampler(); err != nil {
			return nil, err
		}
		defer hs.stop()
	}
	var inst instance
	var setups [][2]time.Time
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(o.seed, o.root)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, [2]time.Time{t0, time.Now()})
	}
	hs.settle(time.Now())
	for _, s := range setups {
		raw := s[1].Sub(s[0]).Seconds()
		res.SetupRawS = append(res.SetupRawS, raw)
		res.SetupS = append(res.SetupS, raw*hs.speed(s[0], s[1]))
	}

	budget := time.Duration(o.seconds) * time.Second
	c := checker{}
	trials0, plans0 := sim.TotalTrials(), planCounts()
	var phases []*phase
	if !o.trace {
		ph := measure(inst.units(), nil, hs, budget, c)
		phases = append(phases, ph)
		res.Metrics = append(res.Metrics,
			metric{Name: "setup_s", Value: median(res.SetupS), Unit: "s", Samples: len(res.SetupS)},
			metric{Name: "wall_s", Value: ph.wallSeconds(), Unit: "s", Samples: ph.executed},
			metric{Name: "setup_raw_s", Value: median(res.SetupRawS), Unit: "s", Samples: len(res.SetupRawS)},
			metric{Name: "wall_raw_s", Value: ph.rawWallSeconds(), Unit: "s", Samples: ph.executed},
			metric{Name: "host_speed", Value: ph.hostSpeed(), Unit: "ratio", Samples: ph.executed},
			heapMetric(ph),
		)
		res.Metrics = append(res.Metrics, countMetrics(ph)...)
		extra, err := inst.extras(ph)
		if err != nil {
			return nil, err
		}
		res.Metrics = append(res.Metrics, extra...)
	} else {
		dir := filepath.Join(o.out, "trace", w.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		base := measure(inst.units(), nil, nil, budget/2, c)
		traced, err := measureProfiled(inst.units(), budget/2, c, filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		phases = append(phases, base, traced)
		res.Metrics = append(res.Metrics, heapMetric(base))
		shares, err := profileShares(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		res.Metrics = append(res.Metrics, layerMetrics(base, traced, shares)...)
		res.Metrics = append(res.Metrics, countMetrics(traced)...)
		extra, err := inst.extras(traced)
		if err != nil {
			return nil, err
		}
		res.Metrics = append(res.Metrics, extra...)
		// extras may add spans (radio replays, workload builds), so the
		// span file is written after them.
		spans := traced.tr.snapshot()
		self := selfShares(spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			res.Metrics = append(res.Metrics, metric{Name: "self." + name, Value: self[name], Unit: "share"})
		}
		if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
			return nil, err
		}
		if err := writeHeapProfile(filepath.Join(dir, "heap.pprof")); err != nil {
			return nil, err
		}
	}
	for _, ph := range phases {
		res.MeasureS += ph.elapsed.Seconds()
		res.Units += ph.executed
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.Errors = append(res.Errors, ph.errs...)
	}
	res.Attempted++
	if err := inst.verify(); err != nil {
		res.Failed++
		res.Errors = append(res.Errors, "verify: "+err.Error())
	}
	_, res.Plans = simCounts(trials0, plans0)
	ph := phases[0]
	for i := range ph.executed {
		u := ph.units[i%len(ph.units)]
		e := ph.execs[u.name][i/len(ph.units)]
		res.Executions = append(res.Executions, execRecord{
			Unit: u.name, Seconds: e.seconds, HostSpeed: e.speed, HeapPeakMB: float64(e.heapPeak) / (1 << 20),
		})
	}
	return res, nil
}

// heapMetric is heap_peak_mb: the in-use heap a pass needs.
func heapMetric(ph *phase) metric {
	return metric{Name: "heap_peak_mb", Value: ph.heapPeakBytes() / (1 << 20), Unit: "MiB", Samples: len(ph.units)}
}

// measureProfiled runs a traced phase under a CPU profile written to
// profPath.
func measureProfiled(units []unit, budget time.Duration, c checker, profPath string) (*phase, error) {
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ph := measure(units, newTracer(), nil, budget, c)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return ph, nil
}

// writeHeapProfile writes what the workload's instance keeps live (its
// inputs, and whatever the layers pool or cache) for drill-down with
// `go tool pprof`.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the traced per-layer metrics every workload
// reports: where the CPU went, how busy the processors were, what the
// runtime did per pass, and what tracing itself cost.
func layerMetrics(base, traced *phase, shares map[string]float64) []metric {
	var out []metric
	for _, c := range cpuCategories {
		out = append(out, metric{Name: "cpu." + c, Value: shares[c], Unit: "share"})
	}
	return append(out,
		metric{Name: "cpu.util", Value: traced.cpuUtil(), Unit: "share"},
		metric{Name: "runtime.gc_cycles", Value: traced.perPass(median, func(e execution) float64 { return float64(e.gcCycles) }), Unit: "count"},
		metric{Name: "runtime.alloc_mb", Value: traced.perPass(median, func(e execution) float64 { return float64(e.allocBytes) / (1 << 20) }), Unit: "MiB"},
		metric{Name: "trace_overhead_frac", Value: traced.wallSeconds()/base.wallSeconds() - 1, Unit: "share", Samples: traced.executed},
	)
}

// countMetrics returns the work counts of one pass that every workload
// reports (zero where a workload does not use the layer). They repeat
// exactly from run to run at a seed, except how serve-mix's repeats split
// between hits and coalesced jobs, which timing decides.
func countMetrics(ph *phase) []metric {
	var out []metric
	for _, c := range []string{"sim.trials", "sim.rows", "sim.rows_batched", "serve.hits", "serve.misses", "serve.coalesced", "experiments.tables"} {
		out = append(out, metric{Name: c, Value: ph.passCount(c), Unit: "count"})
	}
	return out
}

// runRecord is the file --json writes.
type runRecord struct {
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Workloads  []*workloadResult `json:"workloads"`
}

func writeRecord(path string, o options, def *benchDef, results []*workloadResult) error {
	bounds := map[string]float64{}
	for _, d := range def.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	for _, r := range results {
		for i := range r.Metrics {
			r.Metrics[i].Bound = bounds[r.Metrics[i].Name]
		}
	}
	rec := runRecord{Seed: o.seed, Seconds: o.seconds, Traced: o.trace, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Workloads: results}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
