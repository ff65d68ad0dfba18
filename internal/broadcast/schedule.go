// The first-class Schedule API: every broadcast schedule of the paper is
// one registry entry carrying its name, paper reference, result kind, its
// scalar runner and, for the seven entries whose topology can resolve to
// the dense engine, a lockstep trial-batched twin. The registry is the
// only way to run a schedule: the implementations are unexported.
// Callers — the experiment runners, the throughput harness, cmd/noisysim
// and the public facade — select a schedule by name and Run it; whether a
// set of trials executes scalar or as lanes of one lockstep batch is an
// execution-plan detail (see sim.Sweep.AddSchedule), not a caller-visible
// API fork. Single-message schedules drive both strategies through one
// closure over marker; each multi-message twin is written twice, as a
// scalar loop and as a multiLane twin, and the package tests keep the two
// equal.
package broadcast

import (
	"errors"
	"fmt"
	"sort"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// ScheduleKind distinguishes the result shapes of the registry.
type ScheduleKind int

const (
	// SingleMessage schedules broadcast one message; Outcome.Done counts
	// informed nodes.
	SingleMessage ScheduleKind = iota + 1
	// MultiMessage schedules broadcast K messages; Outcome.Done counts
	// nodes holding (or having decoded) all K.
	MultiMessage
)

// String returns a short human-readable kind name.
func (k ScheduleKind) String() string {
	switch k {
	case SingleMessage:
		return "single-message"
	case MultiMessage:
		return "multi-message"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// ScheduleParams is the union of schedule-specific parameters. Every entry
// documents which fields it reads; unread fields are ignored, and the zero
// value selects each schedule's defaults. Schedules that synthesise their
// own topology (stars, the single link, the pipelined paths) ignore the
// topology passed to Run.
type ScheduleParams struct {
	// K is the message count of the multi-message schedules.
	K int
	// Leaves sizes the star schedules' topology.
	Leaves int
	// PathLen sizes the path-pipeline and transformed-path schedules.
	PathLen int
	// Repeats is the per-message repetition count of the non-adaptive
	// single-link schedule; <= 0 selects DefaultSingleLinkRepeats(K, cfg.P).
	Repeats int
	// WCT is the worst-case topology instance of the WCT schedules.
	WCT *graph.WCT
	// Pattern selects the RLNC broadcast pattern; 0 selects RLNCDecay.
	Pattern RLNCPattern
	// PayloadLen is the RLNC message payload length in bytes; <= 0
	// selects 8 (the experiments' O(log nk)-bit message stand-in).
	PayloadLen int
	// Robust tunes Robust FASTBC.
	Robust RobustParams
	// Transform tunes the Lemma 25/26 meta-round transformations.
	Transform TransformParams
	// RLNC tunes coded multi-message broadcast.
	RLNC RLNCOptions
	// Options tunes round caps and tracing.
	Options Options
}

func (p ScheduleParams) pattern() RLNCPattern {
	if p.Pattern == 0 {
		return RLNCDecay
	}
	return p.Pattern
}

func (p ScheduleParams) payloadLen() int {
	if p.PayloadLen <= 0 {
		return 8
	}
	return p.PayloadLen
}

// Outcome is the result of one schedule execution, and of RLNCBroadcast.
type Outcome struct {
	// Rounds is the number of rounds executed until success or the cap.
	Rounds int
	// Success reports whether the broadcast completed before the cap.
	Success bool
	// Done counts the nodes that finished: informed nodes for
	// single-message schedules, nodes holding all K messages for
	// multi-message ones.
	Done int
	// Channel holds channel-level accounting from the radio engine.
	Channel radio.Stats
}

// Throughput returns the realised messages-per-round k/Rounds, the
// empirical counterpart of Definition 1; 0 if the execution failed.
func (o Outcome) Throughput(k int) float64 {
	if !o.Success || o.Rounds == 0 {
		return 0
	}
	return float64(k) / float64(o.Rounds)
}

// Schedule is one registered broadcast schedule: metadata plus its
// execution strategies. Values are obtained from Schedules or
// LookupSchedule and are immutable.
type Schedule struct {
	// Name is the registry key, e.g. "decay" or "star-coding".
	Name string
	// Ref is the paper reference the schedule reproduces.
	Ref string
	// Kind is the result shape (single- or multi-message).
	Kind ScheduleKind

	// planTop returns the topology the schedule actually runs on (the
	// passed topology, or the entry's synthesised one), for execution
	// planners that need to resolve the radio engine before running. A
	// zero topology means "unknown".
	planTop func(top graph.Topology, p ScheduleParams) graph.Topology

	run func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error)
	// runBatch is the lockstep twin, nil for entries whose topology never
	// resolves to the dense engine (stars, WCTs, the single link and the
	// pipelined paths are all sparse).
	runBatch func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error)
}

// Run executes one trial of the schedule under the given randomness.
func (s *Schedule) Run(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	return s.run(top, cfg, r, p)
}

// RunBatch executes one independent trial per stream in rnds; outcome i
// is identical to Run over rnds[i] (the batch twins' contract, enforced by
// the package tests). The trials run as lanes of one lockstep batch when
// the entry has a lockstep twin (HasLockstep), rnds holds 2 to
// radio.MaxBatchWidth streams, the run is untraced (tracing is a scalar
// concern), and the schedule's topology resolves to the dense engine
// under cfg, the only engine with a lockstep kernel. Otherwise RunBatch
// calls Run once per stream.
func (s *Schedule) RunBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
	if len(rnds) == 0 {
		return nil, errors.New("broadcast: batch run with no streams")
	}
	if s.runBatch != nil && len(rnds) > 1 && len(rnds) <= radio.MaxBatchWidth && p.Options.Trace == nil {
		if pt := s.planTop(top, p); pt.G != nil && cfg.ResolveEngine(pt.G) == radio.Dense {
			return s.runBatch(top, cfg, rnds, p)
		}
	}
	out := make([]Outcome, len(rnds))
	for i, r := range rnds {
		o, err := s.run(top, cfg, r, p)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// HasLockstep reports whether the entry has a lockstep twin, which
// RunBatch runs on topologies that resolve to the dense engine. Execution
// planners use it to plan such entries' rows as lockstep batches and
// every other row scalar.
func (s *Schedule) HasLockstep() bool { return s.runBatch != nil }

// PlanTopology returns the topology the schedule would execute on given
// these arguments: the passed topology for topology-taking schedules, the
// synthesised one (star, single link, pipelined path) otherwise. Execution
// planners use it to resolve the radio engine without running anything; a
// zero topology (nil graph) means the answer is unknown.
func (s *Schedule) PlanTopology(top graph.Topology, p ScheduleParams) graph.Topology {
	return s.planTop(top, p)
}

// passedTop is the planTop of schedules that run on the caller's topology.
func passedTop(top graph.Topology, _ ScheduleParams) graph.Topology { return top }

// schedules is the registry, one entry per broadcast schedule, in paper
// order: the single-message algorithms of Section 4.1, coded and naive
// multi-message broadcast of Section 4.2, then the throughput-gap routing
// and coding schedules of Section 5 and the appendices.
var schedules = []*Schedule{
	{Name: "decay", Ref: "Lemmas 6/9", Kind: SingleMessage,
		planTop: passedTop, run: decay, runBatch: decayBatch},
	{Name: "decay-unknown-n", Ref: "Lemma 9 extension (unknown n)", Kind: SingleMessage,
		planTop: passedTop, run: decayUnknownN, runBatch: decayUnknownNBatch},
	{Name: "fastbc", Ref: "Lemmas 8/10", Kind: SingleMessage,
		planTop: passedTop, run: fastbc, runBatch: fastbcBatch},
	{Name: "robust-fastbc", Ref: "Theorem 11", Kind: SingleMessage,
		planTop: passedTop, run: robustFASTBC, runBatch: robustFASTBCBatch},
	{Name: "rlnc", Ref: "Lemmas 12-13", Kind: MultiMessage,
		planTop: passedTop, run: randomRLNC, runBatch: randomRLNCBatch},
	{Name: "sequential-decay-routing", Ref: "Section 4.2 baseline", Kind: MultiMessage,
		planTop: passedTop, run: sequentialDecayRouting, runBatch: sequentialDecayRoutingBatch},
	{Name: "star-routing", Ref: "Lemma 15", Kind: MultiMessage,
		planTop: starPlanTop, run: starRouting},
	{Name: "star-coding", Ref: "Lemma 16", Kind: MultiMessage,
		planTop: starPlanTop, run: starCoding},
	{Name: "wct-routing", Ref: "Lemmas 19/21/22", Kind: MultiMessage,
		planTop: wctPlanTop, run: wctRouting},
	{Name: "wct-coding", Ref: "Lemma 23", Kind: MultiMessage,
		planTop: wctPlanTop, run: wctCoding},
	{Name: "single-link-nonadaptive", Ref: "Lemma 29", Kind: MultiMessage,
		planTop: singleLinkPlanTop, run: singleLinkNonAdaptive},
	{Name: "single-link-adaptive", Ref: "Lemma 32", Kind: MultiMessage,
		planTop: singleLinkPlanTop, run: singleLinkAdaptive},
	{Name: "single-link-coding", Ref: "Lemma 30", Kind: MultiMessage,
		planTop: singleLinkPlanTop, run: singleLinkCoding},
	{Name: "path-pipeline-routing", Ref: "Lemma 25 demonstration schedule", Kind: MultiMessage,
		planTop: pathPlanTop, run: pathPipelineRouting},
	{Name: "pipelined-batch-routing", Ref: "Lemmas 20-21", Kind: MultiMessage,
		planTop: passedTop, run: pipelinedBatchRouting, runBatch: pipelinedBatchRoutingBatch},
	{Name: "transformed-path-routing", Ref: "Lemma 25", Kind: MultiMessage,
		planTop: pathPlanTop, run: transformedPathRouting},
	{Name: "transformed-path-coding", Ref: "Lemma 26", Kind: MultiMessage,
		planTop: pathPlanTop, run: transformedPathCoding},
}

func starPlanTop(_ graph.Topology, p ScheduleParams) graph.Topology {
	if p.Leaves < 1 {
		return graph.Topology{}
	}
	return cachedStar(p.Leaves)
}

func wctPlanTop(_ graph.Topology, p ScheduleParams) graph.Topology {
	if p.WCT == nil {
		return graph.Topology{}
	}
	return graph.Topology{G: p.WCT.G, Source: p.WCT.Source, Name: "wct"}
}

func singleLinkPlanTop(graph.Topology, ScheduleParams) graph.Topology {
	return cachedSingleLink()
}

func pathPlanTop(_ graph.Topology, p ScheduleParams) graph.Topology {
	if p.PathLen < 1 {
		return graph.Topology{}
	}
	return cachedPath(p.PathLen + 1)
}

// Schedules returns every registered schedule in registry (paper) order.
// The returned slice is a copy; the entries are shared and immutable.
func Schedules() []*Schedule {
	out := make([]*Schedule, len(schedules))
	copy(out, schedules)
	return out
}

// LookupSchedule returns the schedule registered under name, or an
// *UnknownScheduleError naming the known schedules.
func LookupSchedule(name string) (*Schedule, error) {
	for _, s := range schedules {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, &UnknownScheduleError{Name: name}
}

// MustSchedule returns the schedule registered under name, panicking on
// a miss — for callers naming registry entries by compile-time constants,
// where an unknown name is a programming error rather than a data
// condition.
func MustSchedule(name string) *Schedule {
	s, err := LookupSchedule(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ScheduleNames returns all registered schedule names, sorted.
func ScheduleNames() []string {
	names := make([]string, len(schedules))
	for i, s := range schedules {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// UnknownScheduleError reports a LookupSchedule name that is not
// registered.
type UnknownScheduleError struct {
	Name string
}

func (e *UnknownScheduleError) Error() string {
	return "broadcast: unknown schedule " + fmt.Sprintf("%q", e.Name)
}
