package experiments

import (
	"fmt"
	"math"
	"math/bits"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// LargeNImplicit is the node count from which WorkloadTopology builds the
// complete workload in the CSR-less implicit storage mode. Only complete
// needs it: its adjacency is Θ(n²) (a Θ(n²/8)-byte bit matrix, an O(n²)
// CSR), which stops fitting memory past this size, while CompleteModel
// answers every query in closed form. Every other family has O(n log n)
// edges at most and is stored as CSR at any n, which the sparse engine
// runs in O(Σ deg) per round. Engines are bit-identical across storage
// modes, so the switch never changes output.
const LargeNImplicit = 4096

// WorkloadTopology builds the named size-n workload graph for demo,
// schedule and sweep-service runs, validating the caller-supplied sizes
// up front so the graph generators' panics surface as usage errors
// instead of crashes. Topology names are the CLI -topology vocabulary:
// path | complete | star | cycle | grid | hypercube.
func WorkloadTopology(name string, n int) (graph.Topology, error) {
	if n < 2 {
		return graph.Topology{}, fmt.Errorf("topology %s needs n >= 2, got %d", name, n)
	}
	switch name {
	case "path":
		return graph.Path(n), nil
	case "complete":
		if n >= LargeNImplicit {
			return graph.ImplicitComplete(n), nil
		}
		return graph.Complete(n), nil
	case "star":
		return graph.Star(n - 1), nil
	case "cycle":
		if n < 3 {
			return graph.Topology{}, fmt.Errorf("topology cycle needs n >= 3, got %d", n)
		}
		return graph.Cycle(n), nil
	case "grid":
		side := int(math.Sqrt(float64(n)))
		for side*side < n {
			side++
		}
		for side*side > n {
			side--
		}
		if side < 1 || side*side != n {
			return graph.Topology{}, fmt.Errorf("topology grid needs a square n, got %d (nearest squares: %d, %d)", n, side*side, (side+1)*(side+1))
		}
		return graph.Grid(side, side), nil
	case "hypercube":
		if n&(n-1) != 0 {
			return graph.Topology{}, fmt.Errorf("topology hypercube needs a power-of-two n, got %d", n)
		}
		dim := bits.TrailingZeros(uint(n))
		if dim > graph.MaxHypercubeDim {
			return graph.Topology{}, fmt.Errorf("topology hypercube supports at most 2^%d nodes, got 2^%d", graph.MaxHypercubeDim, dim)
		}
		return graph.Hypercube(dim), nil
	default:
		return graph.Topology{}, fmt.Errorf("unknown topology %q (path|complete|star|cycle|grid|hypercube)", name)
	}
}

// ScheduleWorkload builds the topology and parameters a schedule run
// executes: a size-n workload shaped for the schedule (the named topology
// graph for topology-taking schedules, star leaves, a WCT instance, a
// pipeline length), with k messages for multi-message schedules. It also
// rejects schedule/storage combinations that cannot execute — the FASTBC
// family builds a BFS tree up front, which the implicit storage mode of
// complete at n >= LargeNImplicit cannot serve — so both the CLI and the
// sweep service fail these as usage errors rather than let the graph
// layer panic mid-job.
func ScheduleWorkload(sched *broadcast.Schedule, topology string, n, k int, seed uint64) (graph.Topology, broadcast.ScheduleParams, error) {
	if n < 2 {
		return graph.Topology{}, broadcast.ScheduleParams{}, fmt.Errorf("schedule run needs n >= 2, got %d", n)
	}
	if k < 1 {
		return graph.Topology{}, broadcast.ScheduleParams{}, fmt.Errorf("schedule run needs k >= 1, got %d", k)
	}
	p := broadcast.ScheduleParams{}
	if sched.Kind == broadcast.MultiMessage {
		p.K = k
	}
	switch sched.Name {
	case "star-routing", "star-coding":
		p.Leaves = n
		return graph.Topology{}, p, nil
	case "wct-routing", "wct-coding":
		p.WCT = graph.NewWCT(graph.DefaultWCTParams(n), rng.NewFrom(seed, 1<<32))
		return graph.Topology{}, p, nil
	case "single-link-nonadaptive", "single-link-adaptive", "single-link-coding":
		return graph.Topology{}, p, nil
	case "path-pipeline-routing", "transformed-path-routing", "transformed-path-coding":
		p.PathLen = n
		return graph.Topology{}, p, nil
	default:
		top, err := WorkloadTopology(topology, n)
		if err != nil {
			return graph.Topology{}, p, err
		}
		if top.G != nil && !top.G.HasCSR() && (sched.Name == "fastbc" || sched.Name == "robust-fastbc") {
			return graph.Topology{}, p, fmt.Errorf("schedule %s needs materialized adjacency, but topology complete at n %d >= %d is stored only in the implicit form; use a smaller n or another topology", sched.Name, n, LargeNImplicit)
		}
		return top, p, nil
	}
}
