package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "sim.sweep", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third runs past the
		// parent's end and counts only up to it.
		{ID: 2, Parent: 1, Name: "broadcast.trial", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "broadcast.trial", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "broadcast.trial", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "radio.replay", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	if got := self["sim.sweep"]; got != 100-40-10 {
		t.Errorf("sweep self = %d, want 50", got)
	}
	// Trials: (20-6) + 30 + 30.
	if got := self["broadcast.trial"]; got != 74 {
		t.Errorf("trial self = %d, want 74", got)
	}
	if got := self["radio.replay"]; got != 6 {
		t.Errorf("replay self = %d, want 6", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start("workload", 0)
	sp.end(nil)
	if sp.id != 0 {
		t.Errorf("untraced span has id %d", sp.id)
	}
}

func TestOccupancy(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sim.sweep", Start: 0, End: 100, Attrs: map[string]any{"row": "r"}},
		{ID: 2, Parent: 1, Name: "broadcast.trial", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "broadcast.trial", Start: 0, End: 40},
		{ID: 4, Parent: 1, Name: "broadcast.trial", Start: 40, End: 90},
	}
	busy, tails := occupancy(spans, 2)
	if busy != 150.0/200 {
		t.Errorf("busy = %v, want 0.75", busy)
	}
	// Both workers run until 60; from there one or none does.
	if got := tails["r"]; len(got) != 1 || got[0] != 40e-9 {
		t.Errorf("tails = %v, want [40ns]", got)
	}
}

func TestSelfSharesCoverMeasuredPhasesOnly(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "workload", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.sweep", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "broadcast.trial", Start: 20, End: 80},
		{ID: 4, Name: "radio.replay", Start: 100, End: 500}, // outside any phase
	}
	got := selfShares(spans)
	want := map[string]float64{"workload": 0.2, "sim.sweep": 0.2, "broadcast.trial": 0.6}
	if len(got) != len(want) {
		t.Fatalf("shares = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("share %s = %v, want %v", name, got[name], w)
		}
	}
}
