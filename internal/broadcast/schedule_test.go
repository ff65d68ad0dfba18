package broadcast

import (
	"errors"
	"strings"
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

// The cases force the dense engine, so the lockstep twins run on their
// small topologies; the other entries run scalar on it.
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

// TestScheduleRunBatchMatchesRun is the registry-level equivalence
// contract: for every entry, RunBatch over W streams must reproduce W
// scalar Runs outcome for outcome — the unified API may never change what
// a trial computes. Widths 1 and radio.MaxBatchWidth+1 take RunBatch's
// per-stream fallback; widths 3, 9, 13 and 16 run the lockstep twins
// (9 and 13 with the kernel's upper eight lanes partly live), and a
// traced batch the fallback again, so its trace observes every round the
// scalar trials execute.
func TestScheduleRunBatchMatchesRun(t *testing.T) {
	for name, c := range scheduleCases(t) {
		s := MustSchedule(name)
		for _, w := range []int{1, 3, 9, 13, radio.MaxBatchWidth, radio.MaxBatchWidth + 1} {
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
		requireRunBatchMatchesRun(t, s, traced, 4)
		if observed != 2*scalarRounds {
			t.Errorf("%s: traced RunBatch observed %d rounds, want the scalar trials' %d", name, observed-scalarRounds, scalarRounds)
		}
	}
}

// requireRunBatchMatchesRun checks s.RunBatch over w streams against w
// scalar Runs over the same streams.
func requireRunBatchMatchesRun(t *testing.T, s *Schedule, c scheduleCase, w int) {
	t.Helper()
	want := make([]Outcome, w)
	for i := range want {
		out, err := s.Run(c.top, c.cfg, rng.NewFrom(99, uint64(i)), c.p)
		if err != nil {
			t.Fatalf("%s: scalar trial %d: %v", s.Name, i, err)
		}
		want[i] = out
	}
	got, err := s.RunBatch(c.top, c.cfg, trialStreams(99, 0, w), c.p)
	if err != nil {
		t.Fatalf("%s: batch of %d: %v", s.Name, w, err)
	}
	if len(got) != w {
		t.Fatalf("%s: batch returned %d outcomes for %d streams", s.Name, len(got), w)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: width %d trial %d diverged\nscalar %+v\nbatch  %+v", s.Name, w, i, want[i], got[i])
		}
	}
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

// TestScheduleRunBatchLockstepRule: RunBatch hands the streams to the
// lockstep twin only for 2 to radio.MaxBatchWidth untraced streams on a
// topology that resolves to the dense engine, and calls Run once per
// stream otherwise.
func TestScheduleRunBatchLockstepRule(t *testing.T) {
	decay := MustSchedule("decay")
	dense := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}
	sparse := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Sparse}
	traced := ScheduleParams{Options: Options{Trace: func(int, []int32, []int32) {}}}
	path := graph.Path(24)
	for _, c := range []struct {
		name string
		top  graph.Topology
		cfg  radio.Config
		p    ScheduleParams
		w    int
		want bool
	}{
		{"dense", path, dense, ScheduleParams{}, 3, true},
		{"dense-auto", graph.Complete(96), radio.Config{Fault: radio.Faultless}, ScheduleParams{}, 2, true},
		{"full-kernel", path, dense, ScheduleParams{}, radio.MaxBatchWidth, true},
		{"one-stream", path, dense, ScheduleParams{}, 1, false},
		{"too-many-streams", path, dense, ScheduleParams{}, radio.MaxBatchWidth + 1, false},
		{"traced", path, dense, traced, 3, false},
		{"sparse", path, sparse, ScheduleParams{}, 3, false},
		{"sparse-auto", path, radio.Config{Fault: radio.Faultless}, ScheduleParams{}, 3, false},
		{"implicit", graph.ImplicitComplete(96), dense, ScheduleParams{}, 3, false},
	} {
		s := *decay
		lockstep := false
		s.runBatch = func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
			lockstep = true
			return decay.runBatch(top, cfg, rnds, p)
		}
		if _, err := s.RunBatch(c.top, c.cfg, trialStreams(5, 0, c.w), c.p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if lockstep != c.want {
			t.Errorf("%s: RunBatch ran the lockstep twin = %v, want %v", c.name, lockstep, c.want)
		}
	}
}

// TestScheduleRunBatchRejectsWhatRunRejects: each lockstep twin checks
// its arguments as its scalar implementation does, so a batch never
// succeeds where the same trials run one by one would fail. Single-message
// entries get a source outside their graph, multi-message entries K = -1,
// and rlnc additionally an unknown pattern on a single-node graph (where
// the twin's no-round shortcut must not skip the pattern check).
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

// TestRegistryEntriesComplete: every entry carries a unique name and its
// planTop and run functions, exactly the seven entries whose topology can
// resolve to the dense engine carry a lockstep twin, and LookupSchedule
// hands back the entry itself. Schedules returns a copy, so callers cannot
// reorder or replace entries.
func TestRegistryEntriesComplete(t *testing.T) {
	lockstep := map[string]bool{
		"decay": true, "decay-unknown-n": true, "fastbc": true, "robust-fastbc": true,
		"rlnc": true, "sequential-decay-routing": true, "pipelined-batch-routing": true,
	}
	seen := map[string]bool{}
	for _, s := range Schedules() {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("registry name %q empty or repeated", s.Name)
		}
		seen[s.Name] = true
		if s.planTop == nil || s.run == nil {
			t.Errorf("%s: planTop/run missing", s.Name)
		}
		if s.HasLockstep() != lockstep[s.Name] {
			t.Errorf("%s: HasLockstep = %v, want %v", s.Name, s.HasLockstep(), lockstep[s.Name])
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
