package radio

import (
	"testing"

	"noisyradio/internal/graph"
)

func TestResolveEngine(t *testing.T) {
	sparseG := graph.Path(256).G    // avg degree ~2: Auto picks Sparse
	denseG := graph.Complete(256).G // avg degree n-1: Auto picks Dense
	cases := []struct {
		cfg  Config
		g    *graph.Graph
		want Engine
	}{
		{Config{Engine: Auto}, sparseG, Sparse},
		{Config{Engine: Auto}, denseG, Dense},
		{Config{Engine: Sparse}, denseG, Sparse},
		{Config{Engine: Dense}, sparseG, Dense},
	}
	for _, c := range cases {
		if got := c.cfg.ResolveEngine(c.g); got != c.want {
			t.Errorf("ResolveEngine(engine=%v, n=%d) = %v, want %v", c.cfg.Engine, c.g.N(), got, c.want)
		}
	}
	// ResolveEngine must agree with the engine New actually builds.
	for _, g := range []*graph.Graph{sparseG, denseG} {
		net := MustNew[struct{}](g, Config{Fault: Faultless}, nil)
		if net.Engine() != (Config{}).ResolveEngine(g) {
			t.Errorf("ResolveEngine disagrees with New on n=%d", g.N())
		}
	}
}

func TestPlanBatchWidth(t *testing.T) {
	cases := []struct {
		engine Engine
		trials int
		want   int
	}{
		{Sparse, 1000, 1},   // lockstep is dense-only
		{Implicit, 1000, 1}, // lockstep is dense-only
		{Dense, 0, 1},
		{Dense, 1, 1},
		{Dense, 2, MaxBatchWidth}, // a partly filled batch still shares the sweep
		{Dense, 3, MaxBatchWidth},
		{Dense, 16, MaxBatchWidth},
		{Dense, 1000, MaxBatchWidth},
		{Auto, 64, MaxBatchWidth}, // unknown graph plans as dense
	}
	for _, c := range cases {
		got, reason := PlanBatchWidth(c.engine, c.trials)
		if got != c.want {
			t.Errorf("PlanBatchWidth(%v, %d) = %d (%s), want %d", c.engine, c.trials, got, reason, c.want)
		}
		if reason == "" {
			t.Errorf("PlanBatchWidth(%v, %d): empty reason", c.engine, c.trials)
		}
	}
}
