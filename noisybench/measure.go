package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/sim"
)

// unit is one request of a workload: the call a user waits on (a table,
// a schedule row, a scripted pass of service jobs).
type unit struct {
	name string
	run  func(tr *tracer, parent int64) (outcome, error)
}

// outcome is what one execution of a unit produced.
type outcome struct {
	// fingerprint identifies the unit's output. Inputs are fixed by the
	// seed, so every execution of a unit must produce the same one.
	fingerprint string
	// counts are work counts of the execution (trials, rounds, hits).
	counts map[string]float64
	// samples are per-request timings inside the unit, in milliseconds,
	// pooled by name across the phase (service job latencies).
	samples map[string][]float64
	// requests is how many user requests the unit issued (0 counts as
	// one); failures is how many of them failed when the unit errs.
	requests, failures int
}

// execution is what measure records about one run of a unit.
type execution struct {
	t0, t1     time.Time
	seconds    float64
	cpuSeconds float64
	// speed is the host's speed relative to the reference host while the
	// execution ran (1 in a phase without a speed sampler).
	speed      float64
	heapPeak   uint64 // in-use heap high-water mark, bytes
	allocBytes uint64
	gcCycles   uint64
}

// refSeconds is the execution's time on the reference host.
func refSeconds(e execution) float64 { return e.seconds * e.speed }

// phase is one measured stretch of unit executions, traced or not.
type phase struct {
	tr        *tracer
	units     []unit
	execs     map[string][]execution // by unit name
	executed  int                    // unit executions
	attempted int                    // user requests issued
	failed    int                    // user requests that failed
	errs      []string
	// first holds the counts of each unit's first execution in the phase;
	// summed over units they are one pass's counts, which repeat exactly.
	first map[string]map[string]float64
	// total holds counts summed over every execution in the phase.
	total   map[string]float64
	samples map[string][]float64

	elapsed time.Duration
}

// perPass sums, over the units of one pass, a statistic of each unit's
// executions.
func (ph *phase) perPass(stat func([]float64) float64, field func(execution) float64) float64 {
	var s float64
	for _, u := range ph.units {
		xs := make([]float64, len(ph.execs[u.name]))
		for i, e := range ph.execs[u.name] {
			xs[i] = field(e)
		}
		s += stat(xs)
	}
	return s
}

func seconds(e execution) float64 { return e.seconds }

// wallSeconds is the time of one pass on the reference host: the sum over
// units of each unit's median execution, each execution's time scaled by
// the host's speed while it ran.
func (ph *phase) wallSeconds() float64 { return ph.perPass(median, refSeconds) }

// rawWallSeconds is wallSeconds as measured, not scaled to the reference.
func (ph *phase) rawWallSeconds() float64 { return ph.perPass(median, seconds) }

// hostSpeed is the mean host speed over the phase's executions, weighted
// by their time.
func (ph *phase) hostSpeed() float64 { return ph.wallSeconds() / ph.rawWallSeconds() }

// cpuUtil is the share of the processors the executions kept busy.
func (ph *phase) cpuUtil() float64 {
	var cpu, wall float64
	for _, execs := range ph.execs {
		for _, e := range execs {
			cpu += e.cpuSeconds
			wall += e.seconds
		}
	}
	return cpu / (wall * float64(runtime.GOMAXPROCS(0)))
}

// heapPeakBytes is the largest in-use heap any unit needs: the maximum
// over units of the heap's high-water mark during the unit's first
// execution. The units' first executions run in the same order in every
// run, so each starts from the same heap: what the layers' network pools
// kept from its predecessor is part of it.
func (ph *phase) heapPeakBytes() float64 {
	var m uint64
	for _, u := range ph.units {
		m = max(m, ph.execs[u.name][0].heapPeak)
	}
	return float64(m)
}

// passCount returns counter name summed over one pass (0 if no unit
// counts it).
func (ph *phase) passCount(name string) float64 {
	var s float64
	for _, u := range ph.units {
		s += ph.first[u.name][name]
	}
	return s
}

// checker holds the first fingerprint of every unit across phases, so an
// execution that differs from an earlier one, traced or not, fails.
type checker map[string]string

func (c checker) check(name, fp string) error {
	if prev, ok := c[name]; ok && prev != fp {
		return fmt.Errorf("%s: output differs from its first execution:\n  first: %s\n  now:   %s", name, prev, fp)
	}
	c[name] = fp
	return nil
}

// measure executes the units in order, pass after pass, until the next
// unit's median time no longer fits in what is left of budget; the first
// pass always runs whole. The order never depends on timing, so every run
// executes the same sequence. The heap is collected before every
// execution, outside the timing. Given a sampler, each execution's time is
// scaled to the reference host by the speed sampled while it ran.
func measure(units []unit, tr *tracer, hs *speedSampler, budget time.Duration, c checker) *phase {
	ph := &phase{
		tr: tr, units: units,
		execs:   map[string][]execution{},
		first:   map[string]map[string]float64{},
		total:   map[string]float64{},
		samples: map[string][]float64{},
	}
	heap := startHeapSampler()
	defer heap.stop()
	start := time.Now()
	root := tr.start("workload", 0)
	for i := 0; ; i++ {
		u := units[i%len(units)]
		if i >= len(units) && medianSeconds(ph.execs[u.name]) > (budget-time.Since(start)).Seconds() {
			break
		}
		runtime.GC()
		gc0, alloc0 := readRuntime()
		heap.reset()
		cpu0, t0 := cpuTime(), time.Now()
		out, err := u.run(tr, root.id)
		t1 := time.Now()
		e := execution{t0: t0, t1: t1, seconds: t1.Sub(t0).Seconds(), cpuSeconds: cpuTime() - cpu0, heapPeak: heap.peak()}
		gc1, alloc1 := readRuntime()
		e.gcCycles, e.allocBytes = gc1-gc0, alloc1-alloc0
		ph.execs[u.name] = append(ph.execs[u.name], e)
		ph.executed++
		ph.attempted += max(out.requests, 1)
		if err == nil {
			err = c.check(u.name, out.fingerprint)
		}
		if err != nil {
			ph.failed += max(out.failures, 1)
			ph.errs = append(ph.errs, err.Error())
		}
		if _, ok := ph.first[u.name]; !ok {
			ph.first[u.name] = out.counts
		}
		for k, v := range out.counts {
			ph.total[k] += v
		}
		for k, v := range out.samples {
			ph.samples[k] = append(ph.samples[k], v...)
		}
	}
	root.end(nil)
	ph.elapsed = time.Since(start)
	hs.settle(time.Now())
	for _, execs := range ph.execs {
		for i := range execs {
			execs[i].speed = hs.speed(execs[i].t0, execs[i].t1)
		}
	}
	return ph
}

// medianSeconds is the median measured time of executions.
func medianSeconds(execs []execution) float64 {
	xs := make([]float64, len(execs))
	for i, e := range execs {
		xs[i] = e.seconds
	}
	return median(xs)
}

// heapSampler tracks the high-water mark of the in-use heap (the
// runtime's HeapInuse) by sampling it every millisecond.
type heapSampler struct {
	high atomic.Uint64
	done chan struct{}
	quit chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64() + s[1].Value.Uint64()
			for {
				old := h.high.Load()
				if v <= old || h.high.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// reset starts a new high-water mark; peak reads it.
func (h *heapSampler) reset()       { h.high.Store(0) }
func (h *heapSampler) peak() uint64 { return h.high.Load() }

// stop ends the sampler and waits for it to exit.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// readRuntime returns the process's completed GC cycles and cumulative
// heap allocation in bytes.
func readRuntime() (gcCycles, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTime returns the process's user plus system CPU seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// planCounts snapshots the process plan log: how many schedule rows the
// sweeps have registered under each execution plan.
func planCounts() map[benchreport.Plan]int {
	out := map[benchreport.Plan]int{}
	for _, p := range sim.PlanLog() {
		n := p.Count
		p.Count = 0
		out[p] = n
	}
	return out
}

// simCounts returns the sweep-layer work done since the given snapshots:
// trials executed, schedule rows registered and rows planned as lockstep
// batches. It also returns the new plans, sorted, for callers that need
// the width a row ran at.
func simCounts(trials0 int64, plans0 map[benchreport.Plan]int) (map[string]float64, []benchreport.Plan) {
	counts := map[string]float64{"sim.trials": float64(sim.TotalTrials() - trials0)}
	var fresh []benchreport.Plan
	for p, n := range planCounts() {
		d := n - plans0[p]
		if d <= 0 {
			continue
		}
		counts["sim.rows"] += float64(d)
		if p.Width > 1 {
			counts["sim.rows_batched"] += float64(d)
		}
		p.Count = d
		fresh = append(fresh, p)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Schedule+fresh[i].Draw < fresh[j].Schedule+fresh[j].Draw })
	return counts, fresh
}
