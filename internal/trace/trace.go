// Package trace records round-by-round radio-network executions and
// renders them as terminal timelines. It exists for demonstration and
// debugging of small runs (tens of nodes, hundreds of rounds); the
// Monte-Carlo harness never traces.
package trace

import (
	"fmt"
	"strings"
)

// RoundEvent is one executed round.
type RoundEvent struct {
	Round        int
	Broadcasters []int32
	Receivers    []int32
}

// Recorder accumulates round events; its Observe method satisfies
// radio.TraceFunc.
type Recorder struct {
	n      int
	events []RoundEvent
}

// NewRecorder creates a recorder for an n-node network.
func NewRecorder(n int) *Recorder {
	return &Recorder{n: n}
}

// Observe appends one round's events; pass it as the radio trace function.
// The input slices are copied.
func (r *Recorder) Observe(round int, broadcasters, receivers []int32) {
	r.events = append(r.events, RoundEvent{
		Round:        round,
		Broadcasters: append([]int32(nil), broadcasters...),
		Receivers:    append([]int32(nil), receivers...),
	})
}

// Len returns the number of recorded rounds.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns the recorded rounds in order. The returned slice is the
// recorder's own storage; do not modify.
func (r *Recorder) Events() []RoundEvent { return r.events }

// ActiveRounds returns only the rounds in which anything happened.
func (r *Recorder) ActiveRounds() []RoundEvent {
	out := make([]RoundEvent, 0, len(r.events))
	for _, e := range r.events {
		if len(e.Broadcasters) > 0 || len(e.Receivers) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// Timeline renders the execution as one row per active round and one
// column per node: 'B' broadcast, 'r' received, '.' idle. Rendering is
// capped at maxRows rows and refuses networks wider than 120 nodes.
func (r *Recorder) Timeline(maxRows int) string {
	if r.n > 120 {
		return fmt.Sprintf("trace: network too wide to render (%d nodes > 120)\n", r.n)
	}
	var b strings.Builder
	// Header with node-id mod 10 digits.
	b.WriteString("round |")
	for v := 0; v < r.n; v++ {
		b.WriteByte(byte('0' + v%10))
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 7+r.n))
	b.WriteByte('\n')
	rows := 0
	for _, e := range r.ActiveRounds() {
		if maxRows > 0 && rows >= maxRows {
			fmt.Fprintf(&b, "... (%d more active rounds)\n", len(r.ActiveRounds())-rows)
			break
		}
		rows++
		line := make([]byte, r.n)
		for i := range line {
			line[i] = '.'
		}
		for _, v := range e.Broadcasters {
			line[v] = 'B'
		}
		for _, v := range e.Receivers {
			line[v] = 'r'
		}
		fmt.Fprintf(&b, "%5d |%s\n", e.Round, line)
	}
	return b.String()
}

// Summary returns aggregate counts over the recording.
func (r *Recorder) Summary() string {
	var tx, rx int
	for _, e := range r.events {
		tx += len(e.Broadcasters)
		rx += len(e.Receivers)
	}
	return fmt.Sprintf("%d rounds recorded, %d broadcasts, %d receptions", len(r.events), tx, rx)
}
