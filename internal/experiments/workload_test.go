package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// workloadSize returns the largest size of family that is at most n and
// that WorkloadTopology accepts: a square for grid, a power of two for
// hypercube, n itself for the rest.
func workloadSize(family string, n int) int {
	switch family {
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return side * side
	case "hypercube":
		p := 1
		for p*2 <= n {
			p *= 2
		}
		return p
	}
	return n
}

// TestWorkloadTopologyStorage pins one storage mode per family at every
// n: complete is the closed form, with a model and no CSR, which auto runs
// on the implicit engine; every other family is CSR without a model,
// which auto runs on the sparse engine.
func TestWorkloadTopologyStorage(t *testing.T) {
	for _, n := range []int{16, 4095, 4096, 1 << 17} {
		for _, family := range []string{"path", "complete", "star", "cycle", "grid", "hypercube"} {
			size := workloadSize(family, n)
			t.Run(fmt.Sprintf("%s-%d", family, size), func(t *testing.T) {
				top, err := WorkloadTopology(family, size)
				if err != nil {
					t.Fatal(err)
				}
				g := top.G
				if g.N() != size {
					t.Fatalf("built %d nodes, want %d", g.N(), size)
				}
				complete := family == "complete"
				wantEngine := radio.Sparse
				if complete {
					wantEngine = radio.Implicit
				}
				if g.HasCSR() == complete {
					t.Errorf("HasCSR = %v, want %v", g.HasCSR(), !complete)
				}
				if (g.Model() != nil) != complete {
					t.Errorf("has a neighbour model = %v, want %v", g.Model() != nil, complete)
				}
				if got := (radio.Config{}).ResolveEngine(g); got != wantEngine {
					t.Errorf("auto engine = %v, want %v", got, wantEngine)
				}
			})
		}
	}
}

// TestWorkloadTopologyErrors: sizes a family cannot take are usage
// errors, never generator panics. A hypercube past graph.MaxHypercubeDim
// would panic in graph.Hypercube, and a sweep-service job has no recover.
func TestWorkloadTopologyErrors(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
		want   string
	}{
		{"grid", 4095, "square n"},
		{"grid", 12, "square n"},
		{"hypercube", 12, "power-of-two n"},
		{"hypercube", 1 << 21, "at most 2^20 nodes, got 2^21"},
		{"cycle", 2, "n >= 3"},
		{"path", 1, "n >= 2"},
		{"moebius", 16, "unknown topology"},
	} {
		t.Run(fmt.Sprintf("%s-%d", tc.family, tc.n), func(t *testing.T) {
			top, err := WorkloadTopology(tc.family, tc.n)
			if err == nil {
				t.Fatalf("built %s, want an error", top.Name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestScheduleWorkloadFASTBC: the FASTBC schedules build a BFS tree,
// which every family serves at any n — complete from its closed form. At
// n = 8192 every family is accepted, and the complete and grid workloads
// run to completion.
func TestScheduleWorkloadFASTBC(t *testing.T) {
	const n = 8192
	for _, name := range []string{"fastbc", "robust-fastbc"} {
		sched := broadcast.MustSchedule(name)
		for _, family := range []string{"path", "star", "cycle", "grid", "hypercube", "complete"} {
			t.Run(name+"/"+family, func(t *testing.T) {
				top, params, err := ScheduleWorkload(sched, family, workloadSize(family, n), 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				if family != "grid" && family != "complete" {
					return
				}
				res, err := sched.Run(top, radio.Config{Fault: radio.ReceiverFaults, P: 0.1}, rng.New(1), params)
				if err != nil || !res.Success || res.Done != top.G.N() {
					t.Fatalf("%s: %+v, %v", top.Name, res, err)
				}
			})
		}
	}
}
