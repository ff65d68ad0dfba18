// Package noisyradio is a from-scratch Go reproduction of "Broadcasting in
// Noisy Radio Networks" (Censor-Hillel, Haeupler, Hershkowitz, Zuzic,
// PODC 2017; arXiv:1705.07369).
//
// It provides:
//
//   - the noisy radio network model (sender faults / receiver faults) as a
//     deterministic round simulator with three interchangeable execution
//     engines — a sparse engine that applies each broadcaster's word row
//     to 64 listeners per machine word, a bit-parallel dense engine that
//     resolves the channel 64 nodes per machine word, and an implicit
//     engine answering neighbourhood queries from the complete graph's
//     closed form with O(1) per-node state (unlocking n = 10⁵–10⁶ sweeps) —
//     selected by Config.Engine (EngineAuto picks per graph) and proven
//     bit-identical by a differential test harness;
//   - a first-class Schedule registry: every broadcast schedule of the
//     paper — Decay, FASTBC, the new Robust FASTBC, their coded
//     multi-message extensions, and the routing and Reed–Solomon coding
//     schedules behind the throughput-gap theorems — is one registry
//     entry carrying its name, paper reference and execution strategies.
//     Schedules lists them, LookupSchedule selects by name, and Run
//     executes them — the one way to run a schedule;
//   - topology generators, including the worst-case topology (WCT) of
//     Section 5.1.2;
//   - an experiment harness (Experiments, RunExperiment) regenerating every
//     quantitative claim of the paper as a table.
//
// This package is a thin facade over the internal implementation packages;
// every identifier here is stable public API. See README.md for a tour and
// DESIGN.md for the system inventory.
package noisyradio

import (
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// Core model types.
type (
	// Graph is an immutable undirected graph in CSR form.
	Graph = graph.Graph
	// Topology is a graph together with its broadcast source.
	Topology = graph.Topology
	// FaultModel selects faultless / sender-fault / receiver-fault noise.
	FaultModel = radio.FaultModel
	// Config is the noise environment (model + fault probability p) plus
	// the execution-engine selector.
	Config = radio.Config
	// Engine selects the round-execution strategy of the radio simulator:
	// EngineAuto runs a graph with a closed-form model implicitly and
	// every other graph sparse, EngineSparse applies each broadcaster's
	// word row ((word index, 64-bit mask) pairs over its neighbour ids)
	// to a listener tally a word at a time, EngineDense resolves the
	// channel word-parallel over bitset adjacency rows (64 candidate
	// senders per machine word) and runs only when forced, and
	// EngineImplicit answers the transmitting-neighbour query from the
	// topology's closed-form model — no stored adjacency at all.
	// Executions are bit-identical across engines; only speed and memory
	// differ.
	Engine = radio.Engine
	// DrawContract versions the fault-draw sequence of a noisy execution:
	// DrawV1 (the zero value and default) draws one Bernoulli coin per
	// fault site in canonical order, DrawV2 draws geometric skip distances
	// over the same site order, DrawV3 runs a Gilbert–Elliott good/bad
	// burst process per site (time-correlated faults at the same
	// stationary marginal p), and DrawV4 jams a contiguous region of the
	// graph per round (space-correlated faults on top of v1 draws). Each
	// version is its own deterministic universe — bit-stable across
	// engines within the version, different draws across versions — so
	// this is not a pure speed knob the way Engine is.
	DrawContract = radio.DrawContract
	// BurstParams tunes DrawV3 (mean burst length, bad-phase fault
	// probability); the zero value selects the defaults.
	BurstParams = radio.BurstParams
	// JamParams tunes DrawV4 (per-round jam probability, region radius,
	// id-window vs graph-ball region shape); the zero value selects the
	// defaults.
	JamParams = radio.JamParams
	// Rand is the deterministic random stream driving every execution.
	Rand = rng.Stream
)

// Fault models re-exported from the radio engine.
const (
	Faultless      = radio.Faultless
	SenderFaults   = radio.SenderFaults
	ReceiverFaults = radio.ReceiverFaults
)

// Execution engines re-exported from the radio engine.
const (
	EngineAuto     = radio.Auto
	EngineSparse   = radio.Sparse
	EngineDense    = radio.Dense
	EngineImplicit = radio.Implicit
)

// Draw-contract versions re-exported from the radio engine.
const (
	DrawV1 = radio.DrawV1
	DrawV2 = radio.DrawV2
	DrawV3 = radio.DrawV3
	DrawV4 = radio.DrawV4
)

// DrawContracts returns every draw-contract version in order, for callers
// iterating the full set (tests, CLI listings).
func DrawContracts() []DrawContract { return radio.DrawContracts() }

// ParseEngine converts "auto" | "sparse" | "dense" | "implicit" to an
// Engine, for command-line flags.
func ParseEngine(s string) (Engine, error) { return radio.ParseEngine(s) }

// ParseDrawContract converts "v1" | "v2" | "v3" | "v4" (or "", meaning
// v1) to a DrawContract, for command-line flags.
func ParseDrawContract(s string) (DrawContract, error) { return radio.ParseDrawContract(s) }

// Algorithm option types.
type (
	// Options tunes an execution (round caps).
	Options = broadcast.Options
	// RobustParams tunes Robust FASTBC (block size S, wave multiplier c).
	RobustParams = broadcast.RobustParams
	// RLNCPattern selects the pattern driving coded broadcast.
	RLNCPattern = broadcast.RLNCPattern
	// WCT is the worst-case topology instance of Section 5.1.2.
	WCT = graph.WCT
	// WCTParams sizes a WCT instance.
	WCTParams = graph.WCTParams
)

// RLNC patterns re-exported from the broadcast package.
const (
	RLNCDecay        = broadcast.RLNCDecay
	RLNCRobustFASTBC = broadcast.RLNCRobustFASTBC
)

// NewRand returns a deterministic random stream seeded from seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// The Schedule registry: the package's primary execution API.
type (
	// Schedule is one registered broadcast schedule: name, paper
	// reference, result kind and its execution strategy. Obtain entries
	// from Schedules or LookupSchedule.
	Schedule = broadcast.Schedule
	// ScheduleParams is the union of schedule-specific parameters
	// (message count K, star leaves, path length, WCT instance, tuning
	// structs). Unread fields are ignored; the zero value selects each
	// schedule's defaults.
	ScheduleParams = broadcast.ScheduleParams
	// Outcome is the result of one schedule execution (and of
	// RLNCBroadcast).
	Outcome = broadcast.Outcome
	// ScheduleKind distinguishes single- from multi-message schedules.
	ScheduleKind = broadcast.ScheduleKind
	// UnknownScheduleError reports a LookupSchedule name that is not
	// registered.
	UnknownScheduleError = broadcast.UnknownScheduleError
)

// Schedule kinds re-exported from the broadcast package.
const (
	SingleMessage = broadcast.SingleMessage
	MultiMessage  = broadcast.MultiMessage
)

// Schedules returns every registered broadcast schedule in paper order.
func Schedules() []*Schedule { return broadcast.Schedules() }

// LookupSchedule returns the schedule registered under name, or an
// *UnknownScheduleError.
func LookupSchedule(name string) (*Schedule, error) { return broadcast.LookupSchedule(name) }

// ScheduleNames returns all registered schedule names, sorted.
func ScheduleNames() []string { return broadcast.ScheduleNames() }

// Run executes one trial of a registered schedule — the single execution
// entry point of the Schedule API. Schedules that synthesise their own
// topology (stars, the single link, the pipelined paths) ignore top; pass
// Topology{}.
func Run(sched *Schedule, top Topology, cfg Config, r *Rand, p ScheduleParams) (Outcome, error) {
	return sched.Run(top, cfg, r, p)
}

// MustSchedule returns a registry entry by name, panicking on a miss —
// for compile-time-constant names, where a typo is a programming error.
func MustSchedule(name string) *Schedule { return broadcast.MustSchedule(name) }

// Topology generators.
var (
	// Path is the path graph with the source at one end.
	Path = graph.Path
	// Star is the star topology of Lemma 15 (source plus n leaves).
	Star = graph.Star
	// SingleLink is the two-node topology of Appendix A.
	SingleLink = graph.SingleLink
	// Complete is the complete graph, stored as its closed form with no
	// adjacency at every n: O(1) per-node state, so it runs at 10⁵–10⁶
	// nodes on the implicit engine. Every other family has O(n log n)
	// edges at most and is stored as CSR at any size.
	Complete = graph.Complete
	// Grid is the rows×cols grid with a corner source.
	Grid = graph.Grid
	// Layered is a pipeline of fully connected layers behind a source.
	Layered = graph.Layered
	// Lollipop is a binary tree (rank pump) plus a long path — the
	// Lemma 10 workload.
	Lollipop = graph.Lollipop
	// Cycle is the n-cycle.
	Cycle = graph.Cycle
	// Hypercube is the dim-dimensional hypercube.
	Hypercube = graph.Hypercube
	// BinaryTree is the complete binary tree of a given depth.
	BinaryTree = graph.BinaryTree
	// Caterpillar is a spine path with leaves on every spine vertex.
	Caterpillar = graph.Caterpillar
	// RandomTree is a uniform random recursive tree.
	RandomTree = graph.RandomTree
	// GNP is a connected Erdős–Rényi sample.
	GNP = graph.GNP
	// NewWCT builds a worst-case topology instance.
	NewWCT = graph.NewWCT
	// DefaultWCTParams sizes a WCT for ~n total nodes.
	DefaultWCTParams = graph.DefaultWCTParams
)

// Coded multi-message broadcast over caller-provided messages, and the
// Lemma 10 wave model. RLNCBroadcast stays a direct export: it takes the
// caller's messages and returns a witness decode, which the registry's
// Monte-Carlo entry (schedule "rlnc", which draws random messages per
// trial) intentionally does not.
var (
	// RLNCBroadcast broadcasts k messages with random linear network
	// coding (Lemmas 12–13).
	RLNCBroadcast = broadcast.RLNCBroadcast
	// RandomMessages draws k random payloads for RLNCBroadcast.
	RandomMessages = broadcast.RandomMessages
	// DefaultSingleLinkRepeats is the Lemma 29 repetition count.
	DefaultSingleLinkRepeats = broadcast.DefaultSingleLinkRepeats
	// WaveTraversalRounds simulates the Lemma 10 wave process.
	WaveTraversalRounds = broadcast.WaveTraversalRounds
	// WaveTraversalExpectation is its closed-form expectation.
	WaveTraversalExpectation = broadcast.WaveTraversalExpectation
)

// Experiment harness.
type (
	// ExperimentConfig controls trials, seed, parallelism, sweep size,
	// the radio engine and the draw contract of every noisy run (Draw
	// plus the Burst/Jam parameters).
	ExperimentConfig = experiments.Config
	// ExperimentTable is a formatted experiment result.
	ExperimentTable = experiments.Table
	// Experiment is a registered experiment entry.
	Experiment = experiments.Entry
)

// Experiments returns every registered experiment (E1–E19, F1–F2, A1–A3).
func Experiments() []Experiment { return experiments.Registry() }

// ExperimentExtras returns the extra experiments that run only when named
// explicitly (the E20 correlated-noise robustness study). RunExperiment
// accepts their ids like any registry entry.
func ExperimentExtras() []Experiment { return experiments.Extras() }

// RunExperiment runs the experiment with the given id.
func RunExperiment(id string, cfg ExperimentConfig) (ExperimentTable, error) {
	e, ok := experiments.Lookup(id)
	if !ok {
		return ExperimentTable{}, &UnknownExperimentError{ID: id}
	}
	return e.Run(cfg)
}

// UnknownExperimentError reports a RunExperiment id that is not registered.
type UnknownExperimentError struct {
	ID string
}

func (e *UnknownExperimentError) Error() string {
	return "noisyradio: unknown experiment " + e.ID
}
