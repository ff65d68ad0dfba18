package sim

import (
	"sort"
	"sync"

	"noisyradio/internal/benchreport"
)

// The process-wide plan log: every execution plan chosen for a schedule
// row (sweep.AddSchedule), aggregated over identical plans. Like
// TotalTrials this is process-cumulative; noisysim snapshots it into the
// -benchjson report so the engine each row resolved to ships with the
// performance artifact.
var (
	planMu sync.Mutex //lint:deterministic-ok guards planLog, a process-cumulative report counter that no trial reads
	// planLog's keys have Count zero; each value is the count.
	//lint:deterministic-ok process-cumulative report counter that no trial reads
	planLog = map[benchreport.Plan]int{}
)

// recordPlan aggregates one row's chosen plan into the process plan log.
func recordPlan(p benchreport.Plan) {
	p.Count = 0
	planMu.Lock()
	planLog[p]++
	planMu.Unlock()
}

// PlanLog returns the distinct execution plans chosen for schedule rows
// since process start, with counts, sorted by schedule name then trial
// count.
func PlanLog() []benchreport.Plan {
	planMu.Lock()
	out := make([]benchreport.Plan, 0, len(planLog))
	//lint:deterministic-ok accumulation order is irrelevant; out is fully sorted below
	for p, n := range planLog {
		p.Count = n
		out = append(out, p)
	}
	planMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Schedule != out[j].Schedule {
			return out[i].Schedule < out[j].Schedule
		}
		if out[i].Trials != out[j].Trials {
			return out[i].Trials < out[j].Trials
		}
		if out[i].Engine != out[j].Engine {
			return out[i].Engine < out[j].Engine
		}
		return out[i].Draw < out[j].Draw
	})
	return out
}

// ResetPlanLog clears the process plan log, for tests that assert on
// exactly the plans one sweep produced.
func ResetPlanLog() {
	planMu.Lock()
	planLog = map[benchreport.Plan]int{}
	planMu.Unlock()
}
