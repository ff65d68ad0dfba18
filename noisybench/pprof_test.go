package main

import (
	"math"
	"os"
	"testing"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 7 {
		t.Fatalf("parsed %d stacks, want 7", len(stacks))
	}
	if stacks[1].ns != 1_500_000_000 || stacks[1].frames[0] != "noisyradio/internal/rng.(*Stream).Geometric" {
		t.Errorf("stack 1 = %d ns, leaf %q", stacks[1].ns, stacks[1].frames[0])
	}
	if got := stacks[0].frames[2]; got != "slices.Sort[go.shape.[]int32,go.shape.int32]" {
		t.Errorf("inline marker not stripped: %q", got)
	}

	want := []string{"radio", "rng", "coding", "gc", "gc", "net", "other"}
	for i, s := range stacks {
		if got := categorize(s.frames); got != want[i] {
			t.Errorf("stack %d (leaf %s) charged to %s, want %s", i, s.frames[0], got, want[i])
		}
	}

	shares := cpuShares(stacks)
	wantShares := map[string]float64{"radio": 10, "rng": 1500, "coding": 40, "gc": 20, "net": 10, "other": 20}
	var sum float64
	for _, c := range cpuCategories {
		sum += shares[c]
		if w := wantShares[c] / 1600; math.Abs(shares[c]-w) > 1e-12 {
			t.Errorf("share %s = %v, want %v", c, shares[c], w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestParseSampleValue(t *testing.T) {
	for in, want := range map[string]int64{"10ms": 10e6, "1.50s": 1.5e9, "250us": 250e3, "2.5mins": 150e9, "1hrs": 3600e9} {
		got, err := parseSampleValue(in)
		if err != nil || got != want {
			t.Errorf("parseSampleValue(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if _, err := parseSampleValue("ten"); err == nil {
		t.Error("parseSampleValue accepted a non-number")
	}
}
