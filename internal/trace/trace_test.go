package trace

import (
	"strings"
	"testing"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

func TestRecorderObserveCopies(t *testing.T) {
	rec := NewRecorder(4)
	tx := []int32{1}
	rx := []int32{2, 3}
	rec.Observe(0, tx, rx)
	tx[0] = 9 // mutate the caller's slice
	if rec.Events()[0].Broadcasters[0] != 1 {
		t.Fatal("Observe did not copy input slices")
	}
	if rec.Len() != 1 {
		t.Fatalf("Len = %d", rec.Len())
	}
}

func TestActiveRoundsFiltersIdle(t *testing.T) {
	rec := NewRecorder(3)
	rec.Observe(0, nil, nil)
	rec.Observe(1, []int32{0}, nil)
	rec.Observe(2, nil, nil)
	rec.Observe(3, []int32{1}, []int32{2})
	active := rec.ActiveRounds()
	if len(active) != 2 || active[0].Round != 1 || active[1].Round != 3 {
		t.Fatalf("ActiveRounds = %+v", active)
	}
}

func TestTimelineRendering(t *testing.T) {
	rec := NewRecorder(5)
	rec.Observe(0, []int32{0}, []int32{1})
	rec.Observe(1, nil, nil)
	rec.Observe(2, []int32{1}, []int32{0, 2})
	out := rec.Timeline(0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, separator, two active rounds.
	if len(lines) != 4 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "0 |Br...") {
		t.Fatalf("round 0 row wrong: %q", lines[2])
	}
	if !strings.Contains(lines[3], "2 |rBr..") {
		t.Fatalf("round 2 row wrong: %q", lines[3])
	}
}

func TestTimelineRowCap(t *testing.T) {
	rec := NewRecorder(2)
	for i := 0; i < 10; i++ {
		rec.Observe(i, []int32{0}, nil)
	}
	out := rec.Timeline(3)
	if !strings.Contains(out, "7 more active rounds") {
		t.Fatalf("row cap note missing:\n%s", out)
	}
}

func TestTimelineTooWide(t *testing.T) {
	rec := NewRecorder(500)
	if out := rec.Timeline(0); !strings.Contains(out, "too wide") {
		t.Fatalf("wide network not refused: %q", out)
	}
}

func TestSummary(t *testing.T) {
	rec := NewRecorder(3)
	rec.Observe(0, []int32{0, 1}, []int32{2})
	got := rec.Summary()
	if !strings.Contains(got, "1 rounds") || !strings.Contains(got, "2 broadcasts") || !strings.Contains(got, "1 receptions") {
		t.Fatalf("Summary = %q", got)
	}
}

// TestIntegrationWithBroadcast: the recorder plugs into a real Decay run
// via Options.Trace and records a consistent execution.
func TestIntegrationWithBroadcast(t *testing.T) {
	top := graph.Path(10)
	rec := NewRecorder(top.G.N())
	res, err := broadcast.MustSchedule("decay").Run(top, radio.Config{Fault: radio.ReceiverFaults, P: 0.2},
		rng.New(5), broadcast.ScheduleParams{Options: broadcast.Options{Trace: rec.Observe}})
	if err != nil || !res.Success {
		t.Fatalf("%v %+v", err, res)
	}
	if rec.Len() != res.Rounds {
		t.Fatalf("recorded %d rounds, result says %d", rec.Len(), res.Rounds)
	}
	var tx, rx int
	for _, e := range rec.Events() {
		tx += len(e.Broadcasters)
		rx += len(e.Receivers)
	}
	if int64(tx) != res.Channel.Broadcasts {
		t.Fatalf("trace broadcasts %d != stats %d", tx, res.Channel.Broadcasts)
	}
	if int64(rx) != res.Channel.Deliveries {
		t.Fatalf("trace receptions %d != stats %d", rx, res.Channel.Deliveries)
	}
	if out := rec.Timeline(20); !strings.Contains(out, "round |") {
		t.Fatalf("timeline missing header:\n%s", out)
	}
}
