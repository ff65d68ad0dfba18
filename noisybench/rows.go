package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"noisyradio/internal/bitset"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/sim"
)

// rowSpec is one schedule row: `trials` Monte-Carlo runs of a registry
// schedule on one topology, each request run as its own sweep, as
// `noisysim -schedule` does.
type rowSpec struct {
	name   string
	sched  *broadcast.Schedule
	top    graph.Topology
	cfg    radio.Config
	params broadcast.ScheduleParams
	trials int
	seed   uint64
}

// rowsWorkload is a list of schedule rows.
type rowsWorkload struct {
	rows  []rowSpec
	procs int

	mu     sync.Mutex
	widths map[string]int // row name → batch width the auto planner chose
}

// A replay keeps at most this many rounds of a row's first trial, spread
// evenly over the trial: enough for a per-round cost, bounded in memory
// (one broadcaster bitset per kept round).
const replayRounds = 512

func row(name, sched string, top graph.Topology, cfg radio.Config, params broadcast.ScheduleParams, trials int, seed uint64, i int) rowSpec {
	return rowSpec{
		name: name, sched: broadcast.MustSchedule(sched), top: top, cfg: cfg,
		params: params, trials: trials, seed: rng.NewFrom(seed, uint64(i)).Uint64(),
	}
}

// setupDenseLockstep builds the dense-lockstep rows: the single-message
// schedules on an explicit G(1024, 1/4) and on Complete(1024), plus two
// multi-message schedules on Complete(1024). Every row is dense enough
// that the planner picks the dense engine and a lockstep batch width.
func setupDenseLockstep(seed uint64, _ string) (instance, error) {
	gnp := graph.GNP(1024, 0.25, rng.NewFrom(seed, 1<<40))
	complete, err := experiments.WorkloadTopology("complete", 1024)
	if err != nil {
		return nil, err
	}
	noise := radio.Config{Fault: radio.ReceiverFaults, P: 0.1}
	var rows []rowSpec
	for _, s := range []string{"decay", "decay-unknown-n", "fastbc", "robust-fastbc"} {
		rows = append(rows,
			row(s+"/gnp-1024", s, gnp, noise, broadcast.ScheduleParams{}, 500, seed, len(rows)),
			row(s+"/complete-1024", s, complete, noise, broadcast.ScheduleParams{}, 1000, seed, len(rows)+1))
	}
	k16 := broadcast.ScheduleParams{K: 16}
	rows = append(rows,
		row("sequential-decay-routing/complete-1024", "sequential-decay-routing", complete, noise, k16, 100, seed, len(rows)),
		row("pipelined-batch-routing/complete-1024", "pipelined-batch-routing", complete, noise, k16, 250, seed, len(rows)+1))
	return newRowsWorkload(rows)
}

// setupLargeN builds the large-n rows: Decay and its unknown-n variant on
// implicit topologies of about 10⁵ nodes, where no adjacency is stored and
// every round costs O(n).
func setupLargeN(seed uint64, _ string) (instance, error) {
	grid, err := experiments.WorkloadTopology("grid", 316*316)
	if err != nil {
		return nil, err
	}
	complete, err := experiments.WorkloadTopology("complete", 100000)
	if err != nil {
		return nil, err
	}
	cube, err := experiments.WorkloadTopology("hypercube", 1<<17)
	if err != nil {
		return nil, err
	}
	none := broadcast.ScheduleParams{}
	rows := []rowSpec{
		row("decay/grid-316x316", "decay", grid, radio.Config{Fault: radio.SenderFaults, P: 0.1}, none, 4, seed, 0),
		row("decay/complete-100000", "decay", complete, radio.Config{Fault: radio.ReceiverFaults, P: 0.3}, none, 32, seed, 1),
		row("decay-v2/complete-100000", "decay", complete, radio.Config{Fault: radio.SenderFaults, P: 0.01, Draw: radio.DrawV2}, none, 32, seed, 2),
		row("decay-unknown-n/hypercube-17", "decay-unknown-n", cube, radio.Config{Fault: radio.ReceiverFaults, P: 0.1}, none, 4, seed, 3),
	}
	return newRowsWorkload(rows)
}

// newRowsWorkload warms every row up with a short run: a few trials capped
// at a few rounds, which allocates the engines' scratch and the dense
// adjacency bit matrices the measured runs reuse.
func newRowsWorkload(rows []rowSpec) (*rowsWorkload, error) {
	w := &rowsWorkload{rows: rows, procs: runtime.GOMAXPROCS(0), widths: map[string]int{}}
	sw := sim.NewSweep(sim.SweepConfig{Workers: w.procs, TrialBatch: sim.TrialBatchAuto})
	for _, r := range rows {
		p := r.params
		p.Options.MaxRounds = 16
		sw.AddSchedule(r.sched, r.top, r.cfg, p, min(r.trials, 16), r.seed, roundsValue)
	}
	if err := sw.Run(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// roundsValue is the statistic every row folds, as the CLI and the sweep
// service do: rounds to completion, a failed trial as the NaN sentinel.
func roundsValue(o broadcast.Outcome) (float64, error) {
	if !o.Success {
		return math.NaN(), nil
	}
	return float64(o.Rounds), nil
}

// tally sums trial outcomes across a sweep's workers.
type tally struct {
	trials, successes, rounds, successRounds   atomic.Int64
	broadcasts, deliveries, collisions, faults atomic.Int64
}

func (t *tally) add(o broadcast.Outcome) {
	t.trials.Add(1)
	t.rounds.Add(int64(o.Rounds))
	if o.Success {
		t.successes.Add(1)
		t.successRounds.Add(int64(o.Rounds))
	}
	t.broadcasts.Add(o.Channel.Broadcasts)
	t.deliveries.Add(o.Channel.Deliveries)
	t.collisions.Add(o.Channel.Collisions)
	t.faults.Add(o.Channel.SenderFaults + o.Channel.ReceiverFaults)
}

func (w *rowsWorkload) units() []unit {
	out := make([]unit, len(w.rows))
	for i := range w.rows {
		r := &w.rows[i]
		out[i] = unit{name: r.name, run: func(tr *tracer, parent int64) (outcome, error) { return w.runRow(r, tr, parent) }}
	}
	return out
}

// runRow runs one row as its own sweep. Untraced, it registers the row
// with AddSchedule and lets the planner pick engine and width. Traced, it
// registers the same schedule with AddBatch at the width the untraced run
// was planned, with spans around every Schedule.Run and RunBatch call; the
// row's statistics must come out identical.
func (w *rowsWorkload) runRow(r *rowSpec, tr *tracer, parent int64) (outcome, error) {
	var t tally
	value := func(o broadcast.Outcome) (float64, error) {
		t.add(o)
		return roundsValue(o)
	}
	trials0, plans0 := sim.TotalTrials(), planCounts()
	sp := tr.start("sim.sweep", parent)
	var sw *sim.Sweep
	var rw *sim.Row
	width := 0
	if tr == nil {
		sw = sim.NewSweep(sim.SweepConfig{Workers: w.procs, TrialBatch: sim.TrialBatchAuto})
		rw = sw.AddSchedule(r.sched, r.top, r.cfg, r.params, r.trials, r.seed, value)
	} else {
		w.mu.Lock()
		width = w.widths[r.name]
		w.mu.Unlock()
		if width == 0 {
			return outcome{}, fmt.Errorf("%s: traced before an untraced run planned its width", r.name)
		}
		sw = sim.NewSweep(sim.SweepConfig{Workers: w.procs, TrialBatch: width})
		scalar := func(_ int, rs *rng.Stream) (float64, error) {
			ts := tr.start("broadcast.trial", sp.id)
			o, err := r.sched.Run(r.top, r.cfg, rs, r.params)
			ts.end(map[string]any{"row": r.name, "width": 1, "rounds": o.Rounds})
			if err != nil {
				return 0, err
			}
			return value(o)
		}
		batch := sim.AdaptBatch(func(rnds []*rng.Stream) ([]broadcast.Outcome, error) {
			ts := tr.start("broadcast.trial", sp.id)
			outs, err := r.sched.RunBatch(r.top, r.cfg, rnds, r.params)
			rounds := 0
			for _, o := range outs {
				rounds += o.Rounds
			}
			ts.end(map[string]any{"row": r.name, "width": len(rnds), "rounds": rounds})
			return outs, err
		}, value)
		rw = sw.AddBatch(r.trials, r.seed, scalar, batch)
	}
	err := sw.Run()
	sp.end(map[string]any{"row": r.name, "workers": w.procs})
	if err != nil {
		return outcome{}, err
	}
	counts, plans := simCounts(trials0, plans0)
	if tr == nil {
		if len(plans) != 1 {
			return outcome{}, fmt.Errorf("%s: expected one execution plan, the sweep recorded %d", r.name, len(plans))
		}
		width = plans[0].Width
		w.mu.Lock()
		w.widths[r.name] = width
		w.mu.Unlock()
	} else {
		// AddBatch rows are not planned, so count the row as AddSchedule would.
		counts["sim.rows"] = 1
		if width > 1 {
			counts["sim.rows_batched"] = 1
		}
	}
	acc := rw.Acc()
	if got := acc.N() + acc.Dropped(); got != r.trials {
		return outcome{}, fmt.Errorf("%s: folded %d trials, ran %d", r.name, got, r.trials)
	}
	if acc.Dropped() > 0 {
		return outcome{}, fmt.Errorf("%s: %d of %d trials did not complete", r.name, acc.Dropped(), r.trials)
	}
	if acc.Sum() != float64(t.successRounds.Load()) {
		return outcome{}, fmt.Errorf("%s: folded round sum %v, trials reported %d", r.name, acc.Sum(), t.successRounds.Load())
	}
	counts["broadcast.trials"] = float64(t.trials.Load())
	counts["broadcast.successes"] = float64(t.successes.Load())
	counts["broadcast.rounds"] = float64(t.rounds.Load())
	counts["radio.broadcasts"] = float64(t.broadcasts.Load())
	counts["radio.deliveries"] = float64(t.deliveries.Load())
	counts["radio.collisions"] = float64(t.collisions.Load())
	counts["radio.faults"] = float64(t.faults.Load())
	fp := fmt.Sprintf("n=%d dropped=%d sum=%v min=%v max=%v rounds=%d tx=%d rx=%d coll=%d faults=%d",
		acc.N(), acc.Dropped(), acc.Sum(), acc.Min(), acc.Max(),
		t.rounds.Load(), t.broadcasts.Load(), t.deliveries.Load(), t.collisions.Load(), t.faults.Load())
	return outcome{fingerprint: fp, counts: counts}, nil
}

func (w *rowsWorkload) extras(ph *phase) ([]metric, error) {
	counts := []metric{{Name: "broadcast.rounds", Value: ph.passCount("broadcast.rounds"), Unit: "count"}}
	for _, c := range []string{"radio.broadcasts", "radio.deliveries", "radio.collisions", "radio.faults"} {
		counts = append(counts, metric{Name: c, Value: ph.passCount(c), Unit: "count"})
	}
	if ph.tr == nil {
		return append(counts, metric{Name: "rounds_per_s", Value: ph.passCount("broadcast.rounds") / ph.wallSeconds(), Unit: "1/s"}), nil
	}
	spans := ph.tr.snapshot()
	trials := named(spans, "broadcast.trial")
	type rowTime struct{ ns, rounds float64 }
	perRow := map[string]*rowTime{}
	var trialNs, trialRounds float64
	for _, s := range trials {
		ns, rounds := float64(s.dur()), float64(s.Attrs["rounds"].(int))
		trialNs += ns
		trialRounds += rounds
		name := s.Attrs["row"].(string)
		if perRow[name] == nil {
			perRow[name] = &rowTime{}
		}
		perRow[name].ns += ns
		perRow[name].rounds += rounds
	}
	// Each single-message row's replayed StepSet cost per round, charged
	// for the rounds the row ran, against the time its trials took.
	var radioNs, singleNs, singleRounds, replayed float64
	for i := range w.rows {
		r := &w.rows[i]
		if r.sched.Kind != broadcast.SingleMessage || perRow[r.name] == nil {
			continue
		}
		ns, rounds, err := replay(r, ph.tr)
		if err != nil {
			return nil, err
		}
		radioNs += ns / float64(rounds) * perRow[r.name].rounds
		singleNs += perRow[r.name].ns
		singleRounds += perRow[r.name].rounds
		replayed += float64(rounds)
	}
	busy, tails := occupancy(spans, w.procs)
	var tail float64
	for _, ts := range tails {
		tail += median(ts)
	}
	attempts := ph.total["radio.deliveries"] + ph.total["radio.collisions"] + ph.total["radio.faults"]
	return append(counts, []metric{
		{Name: "broadcast.ns_per_trial", Value: trialNs / ph.total["broadcast.trials"], Unit: "ns", Samples: len(trials)},
		{Name: "broadcast.ns_per_round", Value: trialNs / trialRounds, Unit: "ns", Samples: len(trials)},
		{Name: "broadcast.success_ratio", Value: ph.total["broadcast.successes"] / ph.total["broadcast.trials"], Unit: "ratio"},
		{Name: "radio.ns_per_round", Value: radioNs / singleRounds, Unit: "ns", Samples: int(replayed)},
		{Name: "radio.share", Value: radioNs / singleNs, Unit: "share"},
		{Name: "radio.delivery_ratio", Value: ph.total["radio.deliveries"] / attempts, Unit: "ratio"},
		{Name: "sim.busy_frac", Value: busy, Unit: "share"},
		{Name: "sim.tail_s", Value: tail, Unit: "s"},
	}...), nil
}

// replay measures the radio layer alone on a row's broadcast pattern: it
// records broadcaster sets of the row's first trial through
// Options.Trace — every stride-th round, the stride doubling whenever
// replayRounds sets are held — then replays them through a fresh
// network's StepSet and times only the StepSet calls.
func replay(r *rowSpec, tr *tracer) (ns float64, rounds int, err error) {
	sp := tr.start("radio.replay", 0)
	n := r.top.G.N()
	var txs []*bitset.Set
	stride := 1
	p := r.params
	p.Options.Trace = func(round int, broadcasters, _ []int32) {
		if round%stride != 0 {
			return
		}
		tx := bitset.New(n)
		for _, v := range broadcasters {
			tx.Set(int(v))
		}
		txs = append(txs, tx)
		if len(txs) == replayRounds {
			for i := range replayRounds / 2 {
				txs[i] = txs[2*i]
			}
			txs = txs[:replayRounds/2]
			stride *= 2
		}
	}
	if _, err := r.sched.Run(r.top, r.cfg, rng.NewFrom(r.seed, 0), p); err != nil {
		return 0, 0, fmt.Errorf("%s: replay trial: %w", r.name, err)
	}
	net := radio.MustNew[int32](r.top.G, r.cfg, rng.NewFrom(r.seed, 1))
	payload := make([]int32, n)
	rx := bitset.New(n)
	var total time.Duration
	for _, tx := range txs {
		t0 := time.Now()
		net.StepSet(tx, payload, rx, nil)
		total += time.Since(t0)
		rx.Reset()
	}
	sp.end(map[string]any{"row": r.name, "rounds": len(txs), "stepset_ns": total.Nanoseconds()})
	return float64(total.Nanoseconds()), len(txs), nil
}

// occupancy returns the sweeps' busy fraction — trial-span time over
// sweep time × workers — and each row's tails in seconds: the time from
// the last moment every worker ran a trial to the sweep's end.
func occupancy(spans []span, workers int) (busy float64, tails map[string][]float64) {
	tails = map[string][]float64{}
	children := map[int64][]span{}
	for _, s := range named(spans, "broadcast.trial") {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var busyNs, capacityNs float64
	for _, sw := range named(spans, "sim.sweep") {
		kids := children[sw.ID]
		capacityNs += float64(sw.dur()) * float64(workers)
		type event struct {
			t     int64
			delta int
		}
		events := make([]event, 0, 2*len(kids))
		for _, k := range kids {
			busyNs += float64(k.dur())
			events = append(events, event{k.Start, 1}, event{k.End, -1})
		}
		sort.Slice(events, func(i, j int) bool {
			if events[i].t != events[j].t {
				return events[i].t < events[j].t
			}
			return events[i].delta < events[j].delta
		})
		lastFull, active := sw.Start, 0
		for _, e := range events {
			if active >= workers {
				lastFull = e.t
			}
			active += e.delta
		}
		row := sw.Attrs["row"].(string)
		tails[row] = append(tails[row], float64(sw.End-lastFull)/1e9)
	}
	if capacityNs > 0 {
		busy = busyNs / capacityNs
	}
	return busy, tails
}

func (w *rowsWorkload) verify() error { return nil }
