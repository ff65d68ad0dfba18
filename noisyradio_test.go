package noisyradio

import (
	"errors"
	"strings"
	"testing"
)

func TestFacadeSingleMessage(t *testing.T) {
	top := Grid(5, 5)
	r := NewRand(1)
	for name, cfg := range map[string]Config{
		"decay":         {Fault: ReceiverFaults, P: 0.2},
		"fastbc":        {Fault: Faultless},
		"robust-fastbc": {Fault: SenderFaults, P: 0.2},
	} {
		res, err := Run(MustSchedule(name), top, cfg, r, ScheduleParams{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Success {
			t.Fatalf("%s failed: %+v", name, res)
		}
	}
}

func TestFacadeMultiMessage(t *testing.T) {
	top := Path(8)
	r := NewRand(2)
	msgs := RandomMessages(4, 8, r)
	res, got, err := RLNCBroadcast(top, Config{Fault: ReceiverFaults, P: 0.2}, msgs, RLNCDecay, r)
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d messages", len(got))
	}
}

func TestFacadeSchedules(t *testing.T) {
	r := NewRand(3)
	cfg := Config{Fault: ReceiverFaults, P: 0.5}
	run := func(name string, p ScheduleParams) {
		t.Helper()
		if res, err := Run(MustSchedule(name), Topology{}, cfg, r, p); err != nil || !res.Success {
			t.Fatalf("%s: %v %+v", name, err, res)
		}
	}
	run("star-routing", ScheduleParams{Leaves: 16, K: 4})
	run("star-coding", ScheduleParams{Leaves: 16, K: 4})
	run("single-link-adaptive", ScheduleParams{K: 16})
	run("wct-coding", ScheduleParams{WCT: NewWCT(DefaultWCTParams(256), r), K: 4})
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 20 {
		t.Fatalf("registry has %d experiments", len(Experiments()))
	}
	tbl, err := RunExperiment("F2", ExperimentConfig{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "F2" || len(tbl.Rows) == 0 {
		t.Fatalf("table = %+v", tbl)
	}
	_, err = RunExperiment("nope", ExperimentConfig{})
	var unknown *UnknownExperimentError
	if !errors.As(err, &unknown) || unknown.ID != "nope" {
		t.Fatalf("err = %v, want UnknownExperimentError", err)
	}
}

func TestFacadeWaveModel(t *testing.T) {
	rounds, err := WaveTraversalRounds(100, 6, 0, NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 100 {
		t.Fatalf("faultless wave rounds = %d, want 100", rounds)
	}
	if got := WaveTraversalExpectation(100, 6, 0); got != 100 {
		t.Fatalf("expectation = %v", got)
	}
}

// TestFacadeScheduleRegistry drives the Schedule API surface: listing,
// lookup and Run.
func TestFacadeScheduleRegistry(t *testing.T) {
	scheds := Schedules()
	if len(scheds) != 17 {
		t.Fatalf("registry has %d schedules, want 17", len(scheds))
	}
	names := ScheduleNames()
	if len(names) != len(scheds) {
		t.Fatalf("%d names for %d schedules", len(names), len(scheds))
	}
	decay, err := LookupSchedule("decay")
	if err != nil {
		t.Fatal(err)
	}
	if decay.Kind != SingleMessage || decay.Ref == "" {
		t.Fatalf("decay entry = %+v", decay)
	}
	top := Grid(5, 5)
	cfg := Config{Fault: ReceiverFaults, P: 0.2, Engine: EngineDense}
	out, err := Run(decay, top, cfg, NewRand(9), ScheduleParams{})
	if err != nil || !out.Success {
		t.Fatalf("Run: %v %+v", err, out)
	}
	// A multi-message schedule through the unified entry point.
	star, err := LookupSchedule("star-coding")
	if err != nil {
		t.Fatal(err)
	}
	mout, err := Run(star, Topology{}, Config{Fault: ReceiverFaults, P: 0.5}, NewRand(11), ScheduleParams{Leaves: 16, K: 4})
	if err != nil || !mout.Success {
		t.Fatalf("star-coding Run: %v %+v", err, mout)
	}
}

// TestFacadeErrorPaths covers the facade's error surfaces: unknown
// experiment ids, engine parse rejects, and unknown schedule names.
func TestFacadeErrorPaths(t *testing.T) {
	_, err := RunExperiment("E99", ExperimentConfig{})
	var unkExp *UnknownExperimentError
	if !errors.As(err, &unkExp) || unkExp.ID != "E99" {
		t.Fatalf("RunExperiment: err = %v, want *UnknownExperimentError{E99}", err)
	}
	if !strings.Contains(err.Error(), "E99") {
		t.Fatalf("UnknownExperimentError does not name the id: %v", err)
	}

	for _, bad := range []string{"turbo", "DENSE", "sparse ", "0"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine(%q) accepted", bad)
		}
	}
	for s, want := range map[string]Engine{"": EngineAuto, "auto": EngineAuto, "sparse": EngineSparse, "dense": EngineDense} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}

	_, err = LookupSchedule("warp-drive")
	var unkSched *UnknownScheduleError
	if !errors.As(err, &unkSched) || unkSched.Name != "warp-drive" {
		t.Fatalf("LookupSchedule: err = %v, want *UnknownScheduleError{warp-drive}", err)
	}
	if !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("UnknownScheduleError does not name the schedule: %v", err)
	}
}
