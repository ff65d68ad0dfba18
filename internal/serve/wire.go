package serve

import (
	"math"

	"noisyradio/internal/stats"
)

// Line is one NDJSON line of a job response stream. A stream is zero or
// more "snapshot" lines — each the fold of the job's first Trials trials,
// emitted as the job's in-order fold passes that count — terminated by
// exactly one "result" line (the whole-job summary, carrying the plan
// key) or one "error" line. Because the snapshot counts derive only from
// the spec and each snapshot is a prefix of one deterministic fold, the
// entire stream is a pure function of the plan key; the server's result
// cache stores and replays the bytes verbatim.
type Line struct {
	Type     string `json:"type"` // "snapshot" | "result" | "error"
	Key      string `json:"key,omitempty"`
	Schedule string `json:"schedule,omitempty"`
	Trials   int    `json:"trials,omitempty"`
	Stats    *Stats `json:"stats,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Stats is a JSON-safe rendering of one stats.Accumulator state. Fields
// that are NaN in the accumulator (everything but the counts while no
// trial has succeeded; the failed-trial sentinel would be illegal JSON)
// are nil and omitted from the wire form.
type Stats struct {
	N       int      `json:"n"`
	Dropped int      `json:"dropped"`
	Sum     *float64 `json:"sum,omitempty"`
	Mean    *float64 `json:"mean,omitempty"`
	Stddev  *float64 `json:"stddev,omitempty"`
	CI95    *float64 `json:"ci95,omitempty"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	P10     *float64 `json:"p10,omitempty"`
	P50     *float64 `json:"p50,omitempty"`
	P90     *float64 `json:"p90,omitempty"`
}

func finite(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// newStats renders an accumulator snapshot for the wire.
func newStats(acc *stats.Accumulator) *Stats {
	s := &Stats{N: acc.N(), Dropped: acc.Dropped()}
	if acc.N() == 0 {
		return s
	}
	s.Sum = finite(acc.Sum())
	s.Mean = finite(acc.Mean())
	s.Stddev = finite(acc.Stddev())
	s.CI95 = finite(acc.CI95())
	s.Min = finite(acc.Min())
	s.Max = finite(acc.Max())
	s.P10 = finite(acc.P10())
	s.P50 = finite(acc.Median())
	s.P90 = finite(acc.P90())
	return s
}
