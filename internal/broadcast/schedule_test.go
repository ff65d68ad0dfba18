package broadcast

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// scheduleCase binds one registry entry to a small but non-trivial
// workload for the equivalence tests below.
type scheduleCase struct {
	top graph.Topology
	cfg radio.Config
	p   ScheduleParams
}

// The cases force the dense engine, which Auto never picks, so the
// equivalence tests below also run every schedule on it.
func scheduleCases(t *testing.T) map[string]scheduleCase {
	t.Helper()
	recv := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}
	half := radio.Config{Fault: radio.ReceiverFaults, P: 0.5, Engine: radio.Dense}
	send := radio.Config{Fault: radio.SenderFaults, P: 0.3, Engine: radio.Dense}
	path := graph.Path(24)
	w := graph.NewWCT(graph.DefaultWCTParams(80), rng.New(7))
	return map[string]scheduleCase{
		"decay":                    {top: path, cfg: recv},
		"decay-unknown-n":          {top: path, cfg: recv},
		"fastbc":                   {top: path, cfg: recv},
		"robust-fastbc":            {top: path, cfg: recv},
		"rlnc":                     {top: graph.Grid(4, 4), cfg: recv, p: ScheduleParams{K: 3}},
		"sequential-decay-routing": {top: graph.Path(12), cfg: recv, p: ScheduleParams{K: 2}},
		"star-routing":             {cfg: half, p: ScheduleParams{Leaves: 12, K: 4}},
		"star-coding":              {cfg: half, p: ScheduleParams{Leaves: 12, K: 4}},
		"wct-routing":              {cfg: half, p: ScheduleParams{WCT: w, K: 3}},
		"wct-coding":               {cfg: half, p: ScheduleParams{WCT: w, K: 3}},
		"single-link-nonadaptive":  {cfg: half, p: ScheduleParams{K: 6}},
		"single-link-adaptive":     {cfg: half, p: ScheduleParams{K: 6}},
		"single-link-coding":       {cfg: half, p: ScheduleParams{K: 6}},
		"path-pipeline-routing":    {cfg: send, p: ScheduleParams{PathLen: 4, K: 20}},
		"pipelined-batch-routing":  {top: graph.Layered(3, 3), cfg: half, p: ScheduleParams{K: 4}},
		"transformed-path-routing": {cfg: send, p: ScheduleParams{PathLen: 4, K: 20}},
		"transformed-path-coding":  {cfg: send, p: ScheduleParams{PathLen: 4, K: 20}},
	}
}

// TestScheduleCasesCoverRegistry keeps the test workloads and the registry
// in sync: adding a schedule without a test case fails here.
func TestScheduleCasesCoverRegistry(t *testing.T) {
	cases := scheduleCases(t)
	for _, s := range Schedules() {
		if _, ok := cases[s.Name]; !ok {
			t.Errorf("registry entry %q has no schedule test case", s.Name)
		}
	}
	if len(cases) != len(Schedules()) {
		t.Errorf("%d test cases for %d registry entries", len(cases), len(Schedules()))
	}
}

// trialStreams derives the per-trial streams exactly as the sweep does.
func trialStreams(seed uint64, start, w int) []*rng.Stream {
	rnds := make([]*rng.Stream, w)
	for i := range rnds {
		rnds[i] = rng.NewFrom(seed, uint64(start+i))
	}
	return rnds
}

// TestScheduleRunBatchMatchesRun: for every entry, the deprecated
// RunBatch over W streams must reproduce W Runs outcome for outcome, as
// must one binding's runner called once per stream. A traced pass checks
// that every trial of RunBatch and of the binding runs traced.
func TestScheduleRunBatchMatchesRun(t *testing.T) {
	for name, c := range scheduleCases(t) {
		s := MustSchedule(name)
		for _, w := range []int{1, 3} {
			requireRunBatchMatchesRun(t, s, c, w)
		}

		var observed int
		traced := c
		traced.p.Options.Trace = func(int, []int32, []int32) { observed++ }
		for i := 0; i < 4; i++ {
			if _, err := s.Run(c.top, c.cfg, rng.NewFrom(99, uint64(i)), traced.p); err != nil {
				t.Fatalf("%s: traced trial %d: %v", name, i, err)
			}
		}
		scalarRounds := observed
		observed = 0
		// Three passes over the same trials: Run, RunBatch and one
		// binding's runner.
		requireRunBatchMatchesRun(t, s, traced, 4)
		if observed != 3*scalarRounds {
			t.Errorf("%s: traced passes observed %d rounds, want 3 × the scalar trials' %d", name, observed, scalarRounds)
		}
	}
}

// requireRunBatchMatchesRun checks s.RunBatch over w streams against w
// Runs over the same streams, and then one binding of the case (Bind),
// its runner called once per stream.
func requireRunBatchMatchesRun(t *testing.T, s *Schedule, c scheduleCase, w int) {
	t.Helper()
	want := make([]Outcome, w)
	for i := range want {
		out, err := s.Run(c.top, c.cfg, rng.NewFrom(99, uint64(i)), c.p)
		if err != nil {
			t.Fatalf("%s: trial %d: %v", s.Name, i, err)
		}
		want[i] = out
	}
	requireOutcomes := func(how string, got []Outcome) {
		t.Helper()
		if len(got) != w {
			t.Fatalf("%s: %s returned %d outcomes for %d streams", s.Name, how, len(got), w)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s width %d trial %d diverged\nRun %+v\ngot %+v", s.Name, how, w, i, want[i], got[i])
			}
		}
	}
	got, err := s.RunBatch(c.top, c.cfg, trialStreams(99, 0, w), c.p)
	if err != nil {
		t.Fatalf("%s: batch of %d: %v", s.Name, w, err)
	}
	requireOutcomes("RunBatch", got)

	run := s.Bind(c.top, c.cfg, c.p)
	bound := make([]Outcome, w)
	for i := range bound {
		if bound[i], err = run(rng.NewFrom(99, uint64(i))); err != nil {
			t.Fatalf("%s: bound trial %d: %v", s.Name, i, err)
		}
	}
	requireOutcomes("bound run", bound)
}

// TestScheduleRunBatchNoStreams: every entry rejects an empty batch.
func TestScheduleRunBatchNoStreams(t *testing.T) {
	for name, c := range scheduleCases(t) {
		out, err := MustSchedule(name).RunBatch(c.top, c.cfg, nil, c.p)
		if err == nil || !strings.Contains(err.Error(), "no streams") {
			t.Errorf("%s: RunBatch with no streams = %v, %v; want the no-streams error", name, out, err)
		}
	}
}

// TestBindPlansOnce: a binding builds a single-message plan exactly once,
// whichever trial needs it first, and all its trials run on that one
// plan. A traced binding plans once too.
func TestBindPlansOnce(t *testing.T) {
	decay := MustSchedule("decay")
	top := graph.Path(24)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}
	plans := 0
	s := *decay
	s.plan = func(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
		plans++
		return decay.plan(top, cfg, p)
	}

	run := s.Bind(top, cfg, ScheduleParams{})
	for i := 0; i < 40; i++ {
		if _, err := run(rng.NewFrom(3, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if plans != 1 {
		t.Fatalf("40 trials planned %d times, want 1", plans)
	}

	plans = 0
	rounds := 0
	traced := ScheduleParams{Options: Options{Trace: func(int, []int32, []int32) { rounds++ }}}
	run = s.Bind(top, cfg, traced)
	for i := 0; i < 3; i++ {
		out, err := run(rng.NewFrom(3, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds == 0 {
			t.Fatalf("traced trial %d ran no round", i)
		}
	}
	if plans != 1 || rounds == 0 {
		t.Fatalf("traced binding planned %d times and traced %d rounds, want 1 plan and every round", plans, rounds)
	}
}

// TestBindConcurrentTrialsShareOnePlan: workers of a sweep share one
// binding, so its plan is built once however the first calls race, and
// the read-only plan gives every trial the outcome a solo Run gives. Run
// it under -race.
func TestBindConcurrentTrialsShareOnePlan(t *testing.T) {
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}
	top := graph.Path(24)
	const workers, trials = 4, 44
	for _, name := range []string{"decay", "decay-unknown-n", "fastbc", "robust-fastbc"} {
		entry := MustSchedule(name)
		plans := 0
		s := *entry
		s.plan = func(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
			plans++
			return entry.plan(top, cfg, p)
		}
		run := s.Bind(top, cfg, ScheduleParams{})
		got := make([]Outcome, trials)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < trials; i += workers {
					var err error
					if got[i], err = run(rng.NewFrom(99, uint64(i))); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if plans != 1 {
			t.Errorf("%s: %d concurrent workers planned %d times, want 1", name, workers, plans)
		}
		for i := range got {
			want, err := entry.Run(top, cfg, rng.NewFrom(99, uint64(i)), ScheduleParams{})
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("%s: trial %d on a shared binding diverged\nsolo   %+v\nshared %+v", name, i, want, got[i])
			}
		}
	}
}

// TestScheduleRunBatchRejectsWhatRunRejects: the deprecated RunBatch
// fails wherever Run fails, so a batch never succeeds where the same
// trials run one by one would not. Single-message entries get a source
// outside their graph, multi-message entries K = -1, and rlnc
// additionally an unknown pattern on a single-node graph (where the
// no-round shortcut must not skip the pattern check).
func TestScheduleRunBatchRejectsWhatRunRejects(t *testing.T) {
	for name, c := range scheduleCases(t) {
		s := MustSchedule(name)
		bad := c
		if s.Kind == SingleMessage {
			bad.top.Source = bad.top.G.N()
		} else {
			bad.p.K = -1
		}
		bads := []scheduleCase{bad}
		if name == "rlnc" {
			bads = append(bads, scheduleCase{top: graph.Path(1), cfg: c.cfg, p: ScheduleParams{K: 2, Pattern: RLNCPattern(99)}})
		}
		for _, b := range bads {
			if _, err := s.Run(b.top, b.cfg, rng.New(3), b.p); err == nil {
				t.Fatalf("%s: Run accepted %+v", name, b.p)
			}
			if out, err := s.RunBatch(b.top, b.cfg, trialStreams(3, 0, 3), b.p); err == nil {
				t.Errorf("%s: RunBatch accepted what Run rejects (%+v): %+v", name, b.p, out)
			}
		}
	}
}

// TestRegistryEntriesComplete: every entry carries a unique name, its
// planTop, and either a single-message plan or a multi-message run
// function, and LookupSchedule hands back the entry itself. Schedules returns a copy, so callers cannot
// reorder or replace entries.
func TestRegistryEntriesComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Schedules() {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("registry name %q empty or repeated", s.Name)
		}
		seen[s.Name] = true
		if s.planTop == nil || (s.run == nil) == (s.plan == nil) {
			t.Errorf("%s: planTop missing, or not exactly one of run and plan", s.Name)
		}
		if (s.plan != nil) != (s.Kind == SingleMessage) {
			t.Errorf("%s: kind %v with plan = %v; single-message entries, and only they, carry a plan", s.Name, s.Kind, s.plan != nil)
		}
		if got, err := LookupSchedule(s.Name); err != nil || got != s {
			t.Errorf("LookupSchedule(%q) = %p, %v; want the entry %p", s.Name, got, err, s)
		}
	}
	list := Schedules()
	list[0] = nil
	if Schedules()[0] == nil {
		t.Error("mutating the Schedules result changed the registry")
	}
}

// TestMustScheduleUnknownPanics: MustSchedule panics with LookupSchedule's
// *UnknownScheduleError on a name the registry does not hold.
func TestMustScheduleUnknownPanics(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		var unk *UnknownScheduleError
		if !ok || !errors.As(err, &unk) || unk.Name != "totally-bogus" {
			t.Fatalf("MustSchedule panicked with %v, want *UnknownScheduleError naming the schedule", err)
		}
	}()
	MustSchedule("totally-bogus")
}

// TestScheduleKinds pins each entry's kind to its result shape.
func TestScheduleKinds(t *testing.T) {
	single := map[string]bool{"decay": true, "decay-unknown-n": true, "fastbc": true, "robust-fastbc": true}
	for _, s := range Schedules() {
		want := MultiMessage
		if single[s.Name] {
			want = SingleMessage
		}
		if s.Kind != want {
			t.Errorf("%s: kind %v, want %v", s.Name, s.Kind, want)
		}
		if s.Ref == "" {
			t.Errorf("%s: empty paper reference", s.Name)
		}
	}
}

// TestSchedulePlanTopology checks the planner's topology view: entries
// that synthesise their own topology report it, entries that run on the
// caller's topology hand it back, and underspecified parameters degrade
// to the zero topology instead of panicking.
func TestSchedulePlanTopology(t *testing.T) {
	for name, c := range scheduleCases(t) {
		s, err := LookupSchedule(name)
		if err != nil {
			t.Fatal(err)
		}
		got := s.PlanTopology(c.top, c.p)
		if c.top.G != nil {
			if got.G != c.top.G {
				t.Errorf("%s: PlanTopology did not return the passed topology", name)
			}
			continue
		}
		if got.G == nil {
			t.Errorf("%s: PlanTopology returned no graph for a synthesising schedule", name)
		}
		// Underspecified params must not panic.
		zero := s.PlanTopology(graph.Topology{}, ScheduleParams{})
		_ = zero
	}
}

func TestLookupScheduleUnknown(t *testing.T) {
	_, err := LookupSchedule("totally-bogus")
	var unk *UnknownScheduleError
	if !errors.As(err, &unk) {
		t.Fatalf("LookupSchedule error = %v, want *UnknownScheduleError", err)
	}
	if unk.Name != "totally-bogus" || !strings.Contains(err.Error(), "totally-bogus") {
		t.Fatalf("error does not name the schedule: %v", err)
	}
	names := ScheduleNames()
	if len(names) != len(Schedules()) {
		t.Fatalf("ScheduleNames returned %d names for %d entries", len(names), len(Schedules()))
	}
	for _, n := range names {
		if _, err := LookupSchedule(n); err != nil {
			t.Fatalf("listed schedule %q does not look up: %v", n, err)
		}
	}
}

// TestScheduleErrorPaths drives the registry's own validation: nil WCT,
// bad K, and the nil-graph topology error of the topology-taking entries.
func TestScheduleErrorPaths(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	r := rng.New(1)
	for _, name := range []string{"wct-routing", "wct-coding"} {
		s, err := LookupSchedule(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(graph.Topology{}, cfg, r, ScheduleParams{K: 2}); err == nil {
			t.Errorf("%s: nil WCT accepted", name)
		}
		if _, err := s.RunBatch(graph.Topology{}, cfg, []*rng.Stream{r, r}, ScheduleParams{K: 2}); err == nil {
			t.Errorf("%s: nil WCT accepted by RunBatch", name)
		}
	}
	rlnc, err := LookupSchedule("rlnc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rlnc.Run(graph.Path(4), cfg, r, ScheduleParams{}); err == nil {
		t.Error("rlnc: K=0 accepted")
	}
	if _, err := rlnc.RunBatch(graph.Path(4), cfg, []*rng.Stream{r, r}, ScheduleParams{}); err == nil {
		t.Error("rlnc: K=0 accepted by RunBatch")
	}
	decay, err := LookupSchedule("decay")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decay.Run(graph.Topology{}, cfg, r, ScheduleParams{}); err == nil {
		t.Error("decay: nil-graph topology accepted")
	}
}
