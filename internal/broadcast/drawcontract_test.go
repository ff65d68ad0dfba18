package broadcast

import (
	"testing"

	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// TestScheduleDrawV1DefaultUnchanged pins the contract default at the
// schedule level: a config that never mentions the draw contract (the
// zero value) and one that spells radio.DrawV1 explicitly must produce
// identical outcomes for every registry entry — DrawV1 IS today's
// behaviour, not a near-copy of it.
func TestScheduleDrawV1DefaultUnchanged(t *testing.T) {
	for name, c := range scheduleCases(t) {
		s, err := LookupSchedule(name)
		if err != nil {
			t.Fatal(err)
		}
		explicit := c.cfg
		explicit.Draw = radio.DrawV1
		for i := 0; i < 3; i++ {
			want, err := s.Run(c.top, c.cfg, rng.NewFrom(41, uint64(i)), c.p)
			if err != nil {
				t.Fatalf("%s: default trial %d: %v", name, i, err)
			}
			got, err := s.Run(c.top, explicit, rng.NewFrom(41, uint64(i)), c.p)
			if err != nil {
				t.Fatalf("%s: explicit-v1 trial %d: %v", name, i, err)
			}
			if got != want {
				t.Errorf("%s: trial %d diverged under explicit DrawV1\ndefault %+v\nv1      %+v", name, i, want, got)
			}
		}
	}
}

// TestScheduleDrawBatchMatchesRun extends the registry-level equivalence
// contract to every non-default draw version: under each of v2/v3/v4, the
// deprecated RunBatch over W streams, and one binding's runner called once
// per stream, must reproduce W Runs outcome for outcome for every entry.
// This is the layer where cross-trial state bugs live: a stateful contract
// (v3's burst process) restarts with each network, so trials that share
// one binding's plan must still each start their draw state afresh. v3's
// burst parameters keep the stationary marginal below BadP at the cases'
// P=0.5.
func TestScheduleDrawBatchMatchesRun(t *testing.T) {
	versions := []struct {
		name string
		set  func(*radio.Config)
	}{
		{"v2", func(cfg *radio.Config) { cfg.Draw = radio.DrawV2 }},
		{"v3", func(cfg *radio.Config) {
			cfg.Draw = radio.DrawV3
			cfg.Burst = radio.BurstParams{Len: 4, BadP: 0.9}
		}},
		{"v4", func(cfg *radio.Config) {
			cfg.Draw = radio.DrawV4
			cfg.Jam = radio.JamParams{Q: 0.2, Radius: 2}
		}},
	}
	cases := scheduleCases(t)
	for _, v := range versions {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, s := range Schedules() {
				s, c := s, cases[s.Name]
				t.Run(s.Name, func(t *testing.T) {
					cfg := c.cfg
					v.set(&cfg)
					const w = 3
					want := make([]Outcome, w)
					for i := range want {
						out, err := s.Run(c.top, cfg, rng.NewFrom(83, uint64(i)), c.p)
						if err != nil {
							t.Fatalf("trial %d: %v", i, err)
						}
						want[i] = out
					}
					got, err := s.RunBatch(c.top, cfg, trialStreams(83, 0, w), c.p)
					if err != nil {
						t.Fatalf("batch: %v", err)
					}
					run := s.Bind(c.top, cfg, c.p)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("trial %d diverged in RunBatch under %s\nRun   %+v\nbatch %+v", i, v.name, want[i], got[i])
						}
						bound, err := run(rng.NewFrom(83, uint64(i)))
						if err != nil {
							t.Fatalf("bound trial %d: %v", i, err)
						}
						if bound != want[i] {
							t.Errorf("bound trial %d diverged under %s\nRun   %+v\nbound %+v", i, v.name, want[i], bound)
						}
					}
				})
			}
		})
	}
}
