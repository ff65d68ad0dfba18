package experiments

import (
	"fmt"
	"math"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/sim"
)

// E20CorrelatedNoise is a robustness study of this reproduction's own
// machinery rather than a paper claim: the paper's analyses assume
// independent per-site faults, and this table measures how the three
// single-message schedules degrade when the same marginal fault rate
// arrives correlated instead — in time as Gilbert–Elliott bursts (DrawV3:
// longer bursts concentrate the faults into fewer, worse rounds) and in
// space as region jamming (DrawV4: a contiguous stretch of the path blacks
// out together). Every row pins its own draw contract and parameters, so
// the table is identical under any -drawcontract setting; the run's
// engine and worker knobs remain pure speed knobs. Trials whose broadcast
// fails within the schedule's round budget report NaN and are excluded
// from the mean (the success column shows how many survived) — under
// heavy jamming a wave-based schedule may fail outright, which is itself
// the measurement.
func E20CorrelatedNoise(cfg Config) (Table, error) {
	t := Table{
		ID:      "E20",
		Title:   "Correlated noise: Gilbert-Elliott bursts and region jamming",
		Claim:   "Robustness extra: Decay degrades smoothly as correlation grows; wave-based schedules pay for burst- and region-correlated faults",
		Columns: []string{"schedule", "noise", "rounds", "±95%", "success", "slowdown"},
	}
	const p = 0.3
	trials := cfg.trials(12, 4)
	n := 256
	burstLens := []float64{1, 4, 16, 64}
	jamRadii := []int{2, 8, 32}
	if cfg.Quick {
		n = 64
		burstLens = []float64{4, 32}
		jamRadii = []int{2, 16}
	}
	top := graph.Path(n)

	// The noise variants, shared across schedules. Each row overrides the
	// run's draw contract: the sweep is *about* the contract, so inheriting
	// -drawcontract would double-apply it. BadP=0.9 keeps the stationary
	// marginal p=0.3 reachable down to Len=1; the jam window on a path is a
	// contiguous path segment, the spatial analogue of a burst.
	type variant struct {
		draw  radio.DrawContract
		burst radio.BurstParams
		jam   radio.JamParams
	}
	variants := []variant{{draw: radio.DrawV1}}
	for _, l := range burstLens {
		variants = append(variants, variant{draw: radio.DrawV3, burst: radio.BurstParams{Len: l, BadP: 0.9}})
	}
	for _, r := range jamRadii {
		variants = append(variants, variant{draw: radio.DrawV4, jam: radio.JamParams{Q: 0.1, Radius: r}})
	}

	schedules := []string{"decay", "fastbc", "robust-fastbc"}
	value := func(o broadcast.Outcome) (float64, error) {
		if !o.Success {
			return math.NaN(), nil // excluded from the mean; surfaced in the success column
		}
		return float64(o.Rounds), nil
	}

	sw := cfg.newSweep()
	type rowData struct {
		sched string
		label string
		row   *sim.Row
	}
	rows := make([]rowData, 0, len(schedules)*len(variants))
	for si, name := range schedules {
		for vi, v := range variants {
			ncfg := cfg.noise(radio.ReceiverFaults, p)
			ncfg.Draw, ncfg.Burst, ncfg.Jam = v.draw, v.burst, v.jam
			row := sw.AddSchedule(schedule(name), top, ncfg, broadcast.ScheduleParams{}, trials, cfg.Seed+uint64(1100+100*si+vi), value)
			rows = append(rows, rowData{name, ncfg.DrawLabel(), row})
		}
	}
	if err := sw.Run(); err != nil {
		return t, err
	}

	base := map[string]float64{} // per-schedule v1 mean, the slowdown denominator
	for _, rd := range rows {
		if rd.label == "v1" {
			base[rd.sched] = rd.row.Mean()
		}
	}
	for _, rd := range rows {
		succeeded := rd.row.Acc().N()
		slowdown := "-"
		if b := base[rd.sched]; b > 0 && succeeded > 0 && rd.label != "v1" {
			slowdown = f(rd.row.Mean() / b)
		}
		mean, ci := "-", "-"
		if succeeded > 0 {
			mean, ci = f(rd.row.Mean()), f(rd.row.CI95())
		}
		t.AddRow(rd.sched, rd.label, mean, ci, fmt.Sprintf("%d/%d", succeeded, trials), slowdown)
	}
	t.AddNote("path(n=%d), receiver faults p=%.1f held fixed across all variants: only the correlation structure changes", n, p)
	t.AddNote("v3 bursts (badp=0.9) concentrate faults in time; v4 jams (q=0.1) black out a contiguous window of the path per jammed round")
	return t, nil
}
