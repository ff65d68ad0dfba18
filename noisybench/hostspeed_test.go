package main

import (
	"math"
	"testing"
	"time"
)

// samplesAt returns one sample every sampleEvery over [from, from+span),
// each taking cpu.
func samplesAt(from time.Time, span, cpu time.Duration) []speedSample {
	var xs []speedSample
	for d := time.Duration(0); d < span; d += sampleEvery {
		xs = append(xs, speedSample{at: from.Add(d), cpu: cpu})
	}
	return xs
}

func TestSpeedIsMeanOverProcessorsInWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := &speedSampler{samples: [][]speedSample{
		samplesAt(t0, 10*time.Second, refNominal),   // full speed
		samplesAt(t0, 10*time.Second, 2*refNominal), // half speed
	}}
	// The second processor slows to a quarter for the last 5 s.
	for i, x := range s.samples[1] {
		if x.at.Sub(t0) >= 5*time.Second {
			s.samples[1][i].cpu = 4 * refNominal
		}
	}
	cases := []struct {
		from, to time.Duration
		want     float64
	}{
		{1 * time.Second, 4 * time.Second, (1 + 0.5) / 2},
		{6 * time.Second, 9 * time.Second, (1 + 0.25) / 2},
		// Shorter than speedWindow: widened evenly around its middle.
		{2 * time.Second, 2*time.Second + time.Millisecond, (1 + 0.5) / 2},
	}
	for _, c := range cases {
		got := s.speed(t0.Add(c.from), t0.Add(c.to))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("speed(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	// Across the change each processor averages its samples' rate.
	got := s.speed(t0.Add(4*time.Second), t0.Add(6*time.Second))
	if got <= 0.625 || got >= 0.75 {
		t.Errorf("speed across the slowdown = %v, want between 0.625 and 0.75", got)
	}
	if got := (*speedSampler)(nil).speed(t0, t0.Add(time.Second)); got != 1 {
		t.Errorf("nil sampler speed = %v, want 1", got)
	}
}

func TestMeasureRunsWholePassesInOrder(t *testing.T) {
	var ran []string
	mk := func(name string, d time.Duration) unit {
		return unit{name: name, run: func(*tracer, int64) (outcome, error) {
			ran = append(ran, name)
			time.Sleep(d)
			return outcome{fingerprint: name}, nil
		}}
	}
	units := []unit{mk("a", 10*time.Millisecond), mk("b", 30*time.Millisecond), mk("c", 10*time.Millisecond)}

	// The first pass runs whole even with no budget.
	measure(units, nil, nil, 0, checker{})
	if got := len(ran); got != 3 {
		t.Fatalf("no budget ran %v, want one pass", ran)
	}

	ran = nil
	ph := measure(units, nil, nil, 200*time.Millisecond, checker{})
	if len(ran) < 4 {
		t.Fatalf("ran %v, want more than one pass in 200ms", ran)
	}
	for i, name := range ran {
		if want := units[i%len(units)].name; name != want {
			t.Fatalf("execution %d ran %s, want %s (order %v)", i, name, want, ran)
		}
	}
	if ph.executed != len(ran) || ph.failed != 0 {
		t.Fatalf("phase counted %d executions, %d failed; ran %d", ph.executed, ph.failed, len(ran))
	}
}
