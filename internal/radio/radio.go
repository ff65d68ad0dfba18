// Package radio implements the (noisy) radio network model of Section 3.1.
//
// A network executes synchronized rounds over an undirected graph. In each
// round every node either listens or broadcasts a packet to all neighbours.
// A listening node receives a packet if and only if exactly one of its
// neighbours broadcasts; otherwise it hears noise (silence or collision).
//
// The noisy extensions of the paper are both supported:
//
//   - Sender faults: each broadcasting node independently transmits noise
//     with probability p. The transmission still occupies the channel (it
//     collides as usual); only its content is destroyed, for every receiver
//     at once.
//   - Receiver faults: each listening node that would otherwise receive a
//     packet (exactly one broadcasting neighbour) independently receives
//     noise with probability p.
//
// In all cases noise is never mistaken for a packet.
//
// # Determinism
//
// The engine is deterministic: all randomness comes from the rng.Stream
// passed at construction, and random draws happen in a canonical order that
// is a pure function of the graph and the broadcasting set — first
// sender-fault flags for broadcasting nodes in ascending node id (sender
// model only), then receiver-fault flags for eligible listeners in
// ascending node id (receiver model only). Deliveries and trace callbacks
// follow the same ascending-id order. A (graph, seed, driver, contract)
// quadruple therefore always yields the identical execution, regardless
// of the execution engine below. The engine is not safe for concurrent
// use; run independent trials on independent Network values.
//
// How the stream is consumed to decide those sites is itself versioned by
// Config.Draw (see DrawContract): DrawV1 draws one Bernoulli per site,
// DrawV2 jumps fault-to-fault with geometric skips over the same site
// order, DrawV3 runs a Gilbert–Elliott burst process over it, and DrawV4
// draws a per-round jammed region. Versions are deliberately not
// interchangeable — each pins its own goldens — but within a version
// every engine is bit-identical.
//
// # Execution engines
//
// Three engines implement the model with bit-identical results:
//
//   - Sparse walks the CSR neighbour lists of the broadcasters, doing
//     O(Σ deg(broadcaster) + touched word window) work per round — best
//     for bounded-degree topologies (paths, grids, trees).
//   - Dense resolves the channel word-parallel: the broadcasting set is a
//     bitset and a listener's transmitting-neighbour count is
//     popcount(adj[u] & tx), 64 candidate senders per machine word, doing
//     O(n²/64) work per round — best for dense topologies without a
//     closed form (high-p GNP, WCT cluster layers, star coding
//     schedules). One straight listener loop serves every n.
//   - Implicit resolves each round in closed form from the topology's
//     model (graph.CompleteModel). On the complete graph every listener
//     hears the round's broadcaster total: two or more broadcasters
//     collide at every listener with no draw, and a lone broadcaster
//     reaches every other node. A collision round costs a popcount over
//     the broadcast words, and only a lone-broadcaster round costs O(n).
//     No adjacency is stored, so per-node state is O(1) and complete
//     graphs at n = 10⁵–10⁶ run in O(n) resident memory, far past the
//     Θ(n²/8)-byte bit-matrix ceiling of Dense. Available exactly when
//     the graph carries a model, which only graph.Complete's do; they
//     store no adjacency, so it is the only engine that runs them.
//
// Config.Engine selects the engine; the default Auto runs every graph
// with a model implicitly and picks between the others by average
// degree. A forced engine the graph cannot support (Sparse/Dense on the
// complete graph, which has no CSR, Implicit on a graph with no model)
// falls back to the Auto choice — benign, because engines are interchangeable by
// construction. Because all engines consume the rng.Stream in the same
// canonical order, Stats, deliveries and traces are bit-identical across
// engines (enforced by differential and fuzz tests).
//
// # Set-native rounds
//
// StepSet is the one way to step a network: the broadcasting set arrives
// as a bitset (which is how the paper's schedules — informed sets, cluster
// layers, wave slots — represent it anyway), successful receivers can be
// accumulated into a caller-provided bitset with no per-delivery closure,
// and the dense engine confines each listener's intersection scan to the
// overlap of the round's nonzero tx word window with the listener's
// adjacency-row window.
package radio

import (
	"fmt"
	"math/bits"
	"strings"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// FaultModel selects which of the paper's models the network runs.
type FaultModel int

const (
	// Faultless is the classic Chlamtac–Kutten radio network model.
	Faultless FaultModel = iota + 1
	// SenderFaults is the sender-fault noisy model.
	SenderFaults
	// ReceiverFaults is the receiver-fault noisy model.
	ReceiverFaults
)

// String returns a short human-readable name of the model.
func (m FaultModel) String() string {
	switch m {
	case Faultless:
		return "faultless"
	case SenderFaults:
		return "sender-faults"
	case ReceiverFaults:
		return "receiver-faults"
	default:
		return fmt.Sprintf("FaultModel(%d)", int(m))
	}
}

// ParseFaultModel converts a fault-model name as the CLI flags and the
// sweep-service wire format spell it. The short forms ("none", "sender",
// "receiver") are the flag vocabulary; the String() forms are accepted
// too so a spec can echo a config back verbatim.
func ParseFaultModel(s string) (FaultModel, error) {
	switch s {
	case "none", "faultless":
		return Faultless, nil
	case "sender", "sender-faults":
		return SenderFaults, nil
	case "receiver", "receiver-faults":
		return ReceiverFaults, nil
	}
	return 0, fmt.Errorf("radio: unknown fault model %q (none|sender|receiver)", s)
}

// Engine selects the round-execution strategy. All engines produce
// bit-identical executions; they differ only in speed and memory.
type Engine int

const (
	// Auto picks the engine from the graph: Implicit whenever it carries
	// a closed-form model, at every n (graph.Complete's graphs);
	// otherwise Dense when the graph is large enough and dense enough
	// that word-parallel channel resolution wins (avg degree ≥ n/8,
	// n ≥ 64); Sparse otherwise. The zero value, so existing
	// configurations keep their behaviour.
	Auto Engine = iota
	// Sparse walks CSR neighbour lists of the broadcasters.
	Sparse
	// Dense resolves receptions word-parallel over bitset adjacency rows.
	// It materialises the graph's Θ(n²/8)-byte bit-matrix adjacency view
	// on construction (cached on the graph, shared across networks).
	Dense
	// Implicit resolves each round in closed form from the graph's
	// neighbourhood model (graph.CompleteModel): a popcount over the
	// broadcast words per collision round, O(n) per lone-broadcaster
	// round, O(1) per-node state, no stored adjacency. Requires the graph
	// to carry a model.
	Implicit
)

// String returns a short human-readable name of the engine.
func (e Engine) String() string {
	switch e {
	case Auto:
		return "auto"
	case Sparse:
		return "sparse"
	case Dense:
		return "dense"
	case Implicit:
		return "implicit"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine converts a string produced by Engine.String back to the
// engine value, for command-line flags.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "sparse":
		return Sparse, nil
	case "dense":
		return Dense, nil
	case "implicit":
		return Implicit, nil
	}
	return Auto, fmt.Errorf("radio: unknown engine %q (auto|sparse|dense|implicit)", s)
}

// DrawContract names the canonical fault-draw sequence a network
// executes. Every contract version visits the same sites in the same
// order (sender flags for broadcasters ascending, then receiver flags for
// eligible listeners ascending — the package-comment order); versions
// differ only in how the rng.Stream is consumed to decide those sites.
// Within one version, executions are bit-identical across engines — the
// same guarantee Engine has always had — but versions are NOT
// interchangeable with each other: each
// records its own goldens, and CI gates each separately.
//
// Versioning exists so draw-sequence changes are named instead of silent:
// a new noise model (correlated bursts, jamming) or a faster sampler
// registers a new contract value with its own goldens, and every existing
// version's outputs stay frozen forever.
type DrawContract int

const (
	// DrawV1 draws one Bernoulli per site (broadcaster or eligible
	// listener) in canonical order. The original contract and the zero
	// value, so existing configurations keep their exact outputs.
	DrawV1 DrawContract = iota
	// DrawV2 selects the faulty sites by geometric skip: one
	// rng.Geometric draw jumps straight to the next faulty site in the
	// same canonical order, making fault cost O(faults) instead of
	// O(sites) — decisive in the sparse-failure regime p·n ≪ n. The skip
	// countdown resets at every round boundary (a partial skip is
	// discarded), so per-round fault counts are exactly Binomial(sites, p)
	// just like v1 — same distribution, different draw sequence. Applies
	// when p ∈ (0,1); at p = 0 it falls back to v1's per-site draws, which
	// are already O(faults) there.
	DrawV2
	// DrawV3 is the Gilbert–Elliott burst contract: the canonical site
	// sequence alternates good phases (fault-free, zero draws per site)
	// and bad phases (one Bernoulli(Burst.BadP) draw per site), with
	// geometric phase lengths — bad phases have mean Burst.Len, and the
	// good-phase length is derived so the stationary marginal fault rate
	// is exactly Config.P. Burst length is the new knob: at equal p,
	// faults arrive clustered instead of i.i.d. A one-time stationarity
	// draw precedes the first site; the phase indicator carries across
	// rounds (a partial phase countdown is discarded at the round
	// boundary — distributionally neutral by memorylessness). Applies
	// when p ∈ (0,1); at p = 0 it falls back to v1's per-site draws.
	DrawV3
	// DrawV4 is the region-jamming contract: per round, with probability
	// Jam.Q an adversary jams a region around a uniformly drawn center —
	// a contiguous id window [c−R, c+R] mod n, or the graph ball around
	// c when Jam.Ball is set. Sites inside the jam fault with no draw
	// consumed; everywhere else (and in unjammed rounds) v1's per-site
	// Bernoulli draws apply. The jam decision and
	// center are drawn lazily at the round's first canonical site, so
	// silent rounds stay draw-free. Active whenever Fault is not
	// Faultless — jamming forces faults even at P = 0.
	DrawV4
)

// contractSpec is one row of the draw-contract descriptor table: the
// single registration point for a contract version. String, Parse,
// Validate and the golden-file plumbing all read this table, so a new
// version cannot leave one of them behind.
type contractSpec struct {
	name   string
	golden string               // committed quick-suite golden for this version
	check  func(c Config) error // contract-specific Config validation, nil when none
}

// contractSpecs is indexed by the DrawContract value.
var contractSpecs = []contractSpec{
	DrawV1: {name: "v1", golden: "golden_quick.json"},
	DrawV2: {name: "v2", golden: "golden_quick_v2.json"},
	DrawV3: {name: "v3", golden: "golden_quick_v3.json", check: validateBurst},
	DrawV4: {name: "v4", golden: "golden_quick_v4.json", check: validateJam},
}

// DrawContracts returns every registered contract version in order.
func DrawContracts() []DrawContract {
	out := make([]DrawContract, len(contractSpecs))
	for i := range out {
		out[i] = DrawContract(i)
	}
	return out
}

// String returns the short contract name used by flags and reports.
func (d DrawContract) String() string {
	if d >= 0 && int(d) < len(contractSpecs) {
		return contractSpecs[d].name
	}
	return fmt.Sprintf("DrawContract(%d)", int(d))
}

// GoldenFile returns the name of the contract's committed quick-suite
// golden under internal/experiments/testdata. Golden tests and CI read
// this instead of hard-coding per-version file names.
func (d DrawContract) GoldenFile() string {
	if d >= 0 && int(d) < len(contractSpecs) {
		return contractSpecs[d].golden
	}
	return ""
}

// ParseDrawContract converts a string produced by DrawContract.String
// back to the contract value, for command-line flags. The empty string is
// the default contract, v1.
func ParseDrawContract(s string) (DrawContract, error) {
	if s == "" {
		return DrawV1, nil
	}
	for i, spec := range contractSpecs {
		if s == spec.name {
			return DrawContract(i), nil
		}
	}
	names := make([]string, len(contractSpecs))
	for i, spec := range contractSpecs {
		names[i] = spec.name
	}
	return DrawV1, fmt.Errorf("radio: unknown draw contract %q (%s)", s, strings.Join(names, "|"))
}

// Default parameters for the correlated-noise contracts: a zero field in
// BurstParams/JamParams selects its default, so Config{Draw: DrawV3} and
// Config{Draw: DrawV4} are valid out of the box.
const (
	DefaultBurstLen  = 8.0  // mean bad-phase length, in canonical sites
	DefaultBurstBadP = 0.5  // fault probability inside a bad phase
	DefaultJamQ      = 0.05 // per-round jam probability
	DefaultJamRadius = 8    // id-window radius of the jammed region
)

// BurstParams parameterises the DrawV3 Gilbert–Elliott contract. The
// zero value selects the defaults field by field.
type BurstParams struct {
	// Len is the mean burst (bad-phase) length, measured in canonical
	// draw sites; bad-phase lengths are geometric with this mean.
	// 0 selects DefaultBurstLen; must otherwise be ≥ 1.
	Len float64
	// BadP is the fault probability inside a bad phase. 0 selects
	// DefaultBurstBadP; must otherwise lie in (0, 1], and Config.P must
	// stay below it (the stationary bad fraction is P/BadP).
	BadP float64
}

// norm resolves zero fields to the defaults.
func (p BurstParams) norm() BurstParams {
	if p.Len == 0 {
		p.Len = DefaultBurstLen
	}
	if p.BadP == 0 {
		p.BadP = DefaultBurstBadP
	}
	return p
}

// JamParams parameterises the DrawV4 region-jamming contract. The zero
// value selects the defaults field by field.
type JamParams struct {
	// Q is the per-round jam probability. 0 selects DefaultJamQ; must
	// otherwise lie in (0, 1].
	Q float64
	// Radius is the id-window radius: a jam covers [c−Radius, c+Radius]
	// mod n around the drawn center c. 0 selects DefaultJamRadius.
	// Ignored when Ball is set.
	Radius int
	// Ball jams the graph ball around the center — c and its
	// neighbours — instead of the id window, making the jam
	// topology-aware on any graph (CSR or implicit).
	Ball bool
}

// norm resolves zero fields to the defaults.
func (p JamParams) norm() JamParams {
	if p.Q == 0 {
		p.Q = DefaultJamQ
	}
	if p.Radius == 0 {
		p.Radius = DefaultJamRadius
	}
	return p
}

// burstDerived returns the derived Gilbert–Elliott quantities for a
// uniform marginal p: the stationary bad-phase fraction πB = p/BadP and
// the good-phase geometric parameter g2b = πB/(Len·(1−πB)), chosen so
// E[good] = (1−πB)/πB · Len and hence the stationary marginal fault rate
// is πB·BadP = p exactly.
func burstDerived(p float64, b BurstParams) (piB, g2b float64) {
	piB = p / b.BadP
	g2b = piB / (b.Len * (1 - piB))
	return piB, g2b
}

// validateBurst checks the DrawV3 parameters of c (after defaulting).
func validateBurst(c Config) error {
	b := c.Burst.norm()
	if !(b.Len >= 1) {
		return fmt.Errorf("radio: burst length %v outside [1, ∞)", b.Len)
	}
	if !(b.BadP > 0 && b.BadP <= 1) {
		return fmt.Errorf("radio: burst bad-state probability %v outside (0,1]", b.BadP)
	}
	if c.P == 0 {
		return nil // falls back to v1 draws, nothing to derive
	}
	piB, g2b := burstDerived(c.P, b)
	if piB >= 1 {
		return fmt.Errorf("radio: DrawV3 needs P < Burst.BadP (got P=%v, BadP=%v)", c.P, b.BadP)
	}
	if g2b > 1 {
		return fmt.Errorf("radio: DrawV3 marginal P=%v unreachable with Burst.Len=%v, Burst.BadP=%v (raise BadP or Len)", c.P, b.Len, b.BadP)
	}
	return nil
}

// validateJam checks the DrawV4 parameters of c (after defaulting).
func validateJam(c Config) error {
	j := c.Jam.norm()
	if !(j.Q > 0 && j.Q <= 1) {
		return fmt.Errorf("radio: jam probability %v outside (0,1]", j.Q)
	}
	if j.Radius < 0 {
		return fmt.Errorf("radio: jam radius %d negative", j.Radius)
	}
	return nil
}

// Config describes the noise environment of a network.
type Config struct {
	Fault FaultModel
	// P is the fault probability p ∈ [0, 1). Ignored when Fault is
	// Faultless.
	P float64
	// Engine selects the execution engine; the zero value Auto picks by
	// average degree. Purely a performance knob: results are bit-identical
	// across engines.
	Engine Engine
	// Draw selects the fault-draw contract version; the zero value DrawV1
	// is the original per-site Bernoulli sequence. Unlike Engine this is
	// NOT purely a performance knob: different versions consume the
	// rng.Stream differently and produce different (equally valid)
	// executions, each pinned by its own goldens.
	Draw DrawContract
	// Burst parameterises DrawV3; ignored under every other contract.
	// The zero value selects the defaults (see BurstParams).
	Burst BurstParams
	// Jam parameterises DrawV4; ignored under every other contract. The
	// zero value selects the defaults (see JamParams).
	Jam JamParams
}

// DrawLabel returns the contract name annotated with its effective
// parameters — "v3(len=8,badp=0.5)", "v4(q=0.05,r=8)" — for plan rows
// and reports. For v1/v2 it is just the contract name.
func (c Config) DrawLabel() string {
	switch c.Draw {
	case DrawV1, DrawV2:
		// No parameters beyond the contract name.
	case DrawV3:
		b := c.Burst.norm()
		return fmt.Sprintf("v3(len=%g,badp=%g)", b.Len, b.BadP)
	case DrawV4:
		j := c.Jam.norm()
		region := fmt.Sprintf("r=%d", j.Radius)
		if j.Ball {
			region = "ball"
		}
		return fmt.Sprintf("v4(q=%g,%s)", j.Q, region)
	default:
		panic(fmt.Sprintf("radio: DrawLabel: unknown draw contract %v", c.Draw))
	}
	return c.Draw.String()
}

// ResolveEngine returns the engine New would actually run g with under
// this configuration: the explicitly selected engine when g supports it,
// otherwise the Auto choice for g. Execution planners use this to predict
// the engine of a network they have not built yet.
func (c Config) ResolveEngine(g *graph.Graph) Engine {
	return resolveEngine(g, c.Engine)
}

// resolveEngine maps a configured engine to the one that will actually
// run g. A forced engine the graph cannot support falls back to the Auto
// choice: Sparse/Dense need materialized adjacency, Implicit needs a
// closed-form model. The fallback is benign — engines are bit-identical —
// and is what lets a suite-wide -engine override run mixed workloads
// (only complete graphs have a model, and they have no CSR).
func resolveEngine(g *graph.Graph, e Engine) Engine {
	switch e {
	case Sparse, Dense:
		if g.HasCSR() {
			return e
		}
	case Implicit:
		if g.Model() != nil {
			return Implicit
		}
	}
	return autoEngine(g)
}

// Validate returns an error for inconsistent configurations.
func (c Config) Validate() error {
	switch c.Fault {
	case Faultless:
	case SenderFaults, ReceiverFaults:
		if !(c.P >= 0 && c.P < 1) {
			return fmt.Errorf("radio: fault probability %v outside [0,1)", c.P)
		}
	default:
		return fmt.Errorf("radio: unknown fault model %d", int(c.Fault))
	}
	switch c.Engine {
	case Auto, Sparse, Dense, Implicit:
	default:
		return fmt.Errorf("radio: unknown engine %d", int(c.Engine))
	}
	if c.Draw < 0 || int(c.Draw) >= len(contractSpecs) {
		return fmt.Errorf("radio: unknown draw contract %d", int(c.Draw))
	}
	if c.Fault != Faultless {
		if check := contractSpecs[c.Draw].check; check != nil {
			if err := check(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// drawMode is the resolved execution mode of a drawState — the contract
// version after degenerate inputs have fallen back to per-site draws.
type drawMode uint8

const (
	// drawPerSite is DrawV1's one-Bernoulli-per-site sequence, and the
	// fallback of DrawV2 and DrawV3 at p = 0. The zero value.
	drawPerSite drawMode = iota
	// drawSkip is DrawV2's active geometric fault-to-fault skip.
	drawSkip
	// drawBurst is DrawV3's active Gilbert–Elliott phase process.
	drawBurst
	// drawJam is DrawV4's per-round region jamming.
	drawJam
)

// drawState executes the configured draw contract over one stream's
// canonical site sequence. Every fault decision in the simulator, on
// any engine, goes through here (or through the bulk walks in
// markBroadcastersBulk, which replay the identical draw sequence), so the
// contract is enforced in exactly one place.
//
// Under drawPerSite, site() is simply the per-site Bernoulli(P) coin. Under
// drawSkip it runs a countdown: one geometric draw yields the distance to
// the next faulty site, and intervening sites consume no randomness; the
// countdown is per-round state — endRound discards a partial skip — so a
// round's fault count is Binomial(sites, p) just like v1. Under drawBurst
// the countdown counts the sites left in the current good/bad phase: a
// phase-length draw opens each phase, good sites then consume nothing and
// bad sites one badCoin draw each; endRound discards the phase countdown
// (memorylessness makes that distributionally neutral) but the phase
// indicator and the one-time stationarity init persist across rounds —
// that persistence is exactly what makes the noise bursty. Under drawJam
// the first site of each round draws the jam decision (and center, if
// jammed); jammed sites then fault with no draw and all others fall
// through to the per-site coin.
type drawState struct {
	mode drawMode
	// coin is the per-site fault sampler Bernoulli(P), exactly equivalent
	// to rnd.Bool(P) draw for draw (see rng.Bernoulli): every site under
	// drawPerSite, the sites outside a jam under drawJam. Unset (never
	// drawn) when Fault is Faultless.
	coin      rng.Bernoulli
	geom      rng.Geometric // v2 skip sampler, set iff mode == drawSkip
	remaining int           // v2: sites until the next fault; v3: sites left in the current phase; -1 = no pending draw

	// Gilbert–Elliott state (mode == drawBurst).
	badGeom  rng.Geometric // bad-phase length sampler, geometric with mean Burst.Len
	goodGeom rng.Geometric // good-phase length sampler, geometric(g2b)
	badCoin  rng.Bernoulli // per-site fault coin inside bad phases (Burst.BadP)
	initCoin rng.Bernoulli // one-time stationarity draw (πB)
	bad      bool          // current phase is bad
	inited   bool          // stationarity draw consumed

	// Region-jamming state (mode == drawJam).
	jamCoin rng.Bernoulli // per-round jam decision (Jam.Q)
	g       *graph.Graph  // ball membership tests (works on CSR and implicit graphs)
	n       int           // node count: center draw range and window arithmetic
	radius  int
	ball    bool
	jamOpen bool  // this round's jam prelude has been drawn
	jammed  bool  // this round has an active jam
	center  int32 // jam center, valid iff jammed
}

// makeDrawState builds the draw state for a validated cfg over g. The
// zero remaining value would mean "fault at the next site", so -1 is the
// explicit idle state.
func makeDrawState(cfg Config, g *graph.Graph) drawState {
	d := drawState{remaining: -1}
	if cfg.Fault == Faultless {
		return d
	}
	d.coin = rng.NewBernoulli(cfg.P)
	switch {
	case cfg.Draw == DrawV2 && cfg.P > 0:
		d.mode = drawSkip
		d.geom = rng.NewGeometric(cfg.P)
	case cfg.Draw == DrawV3 && cfg.P > 0:
		b := cfg.Burst.norm()
		piB, g2b := burstDerived(cfg.P, b)
		d.mode = drawBurst
		d.badGeom = rng.NewGeometric(1 / b.Len)
		d.goodGeom = rng.NewGeometric(g2b)
		d.badCoin = rng.NewBernoulli(b.BadP)
		d.initCoin = rng.NewBernoulli(piB)
	case cfg.Draw == DrawV4:
		j := cfg.Jam.norm()
		d.mode = drawJam
		d.jamCoin = rng.NewBernoulli(j.Q)
		d.g = g
		d.n = g.N()
		d.radius = j.Radius
		d.ball = j.Ball
	}
	return d
}

// bulk reports whether the bulk sender-marking path handles this mode:
// the contract consumes no per-site draw on most sites, so whole spans
// can be skipped and fault sites located by select-the-k-th-set-bit.
// drawJam is excluded — every non-jammed site draws its own coin there,
// so a bulk walk would visit every site anyway.
func (d *drawState) bulk() bool { return d.mode == drawSkip || d.mode == drawBurst }

// site decides one canonical-order site v.
func (d *drawState) site(v int32, r *rng.Stream) bool {
	switch d.mode {
	case drawSkip:
		if d.remaining < 0 {
			d.remaining = d.geom.Draw(r) - 1
		}
		if d.remaining == 0 {
			d.remaining = -1
			return true
		}
		d.remaining--
		return false
	case drawBurst:
		if !d.inited {
			d.inited = true
			d.bad = d.initCoin.Draw(r)
		}
		if d.remaining < 0 {
			if d.bad {
				d.remaining = d.badGeom.Draw(r)
			} else {
				d.remaining = d.goodGeom.Draw(r)
			}
		}
		faulty := false
		if d.bad {
			faulty = d.badCoin.Draw(r)
		}
		if d.remaining--; d.remaining == 0 {
			d.bad = !d.bad
			d.remaining = -1
		}
		return faulty
	case drawJam:
		if !d.jamOpen {
			d.jamOpen = true
			d.jammed = d.jamCoin.Draw(r)
			if d.jammed {
				d.center = int32(r.Intn(d.n))
			}
		}
		if d.jammed && d.inJam(v) {
			return true // adversarial fault: no draw consumed
		}
		return d.coin.Draw(r)
	default:
		return d.coin.Draw(r)
	}
}

// inJam reports whether site v lies in the current jam region.
func (d *drawState) inJam(v int32) bool {
	if d.ball {
		return v == d.center || d.g.HasEdge(int(d.center), int(v))
	}
	// Circular id window [center−radius, center+radius] mod n.
	delta := int(v) - int(d.center)
	if delta < 0 {
		delta += d.n
	}
	return delta <= d.radius || delta >= d.n-d.radius
}

// endRound closes the round's site sequence: a partial v2 skip or v3
// phase countdown does not carry into the next round (the v3 phase
// indicator and stationarity init do — see drawState), and v4's jam
// prelude is re-armed for the next round.
func (d *drawState) endRound() {
	d.remaining = -1
	d.jamOpen = false
	d.jammed = false
}

// Stats accumulates channel-level accounting across rounds.
type Stats struct {
	Rounds         int
	Broadcasts     int64 // node-rounds spent transmitting
	Deliveries     int64 // successful packet receptions
	Collisions     int64 // listener-rounds lost to >=2 broadcasting neighbours
	SenderFaults   int64 // broadcasts replaced by noise (sender model)
	ReceiverFaults int64 // receptions replaced by noise (receiver model)
}

// Network is a noisy radio network over a fixed graph, generic in the
// payload type carried by packets (message ids for routing, coded packets
// for network coding).
type Network[P any] struct {
	g      *graph.Graph
	cfg    Config
	rnd    *rng.Stream
	engine Engine // resolved engine: Sparse, Dense or Implicit, never Auto

	stats Stats

	trace TraceFunc

	// draw executes the configured DrawContract over the canonical site
	// sequence; all fault decisions route through it.
	draw drawState

	// noisySites records the sender-fault sites of the current round when
	// the skip contract is active, so finishRound clears senderNoise in
	// O(faults) instead of walking every broadcaster — without it the
	// clear would eat the savings the skip draw buys.
	noisySites []int32

	// Sparse-engine per-round scratch, reused across rounds to avoid
	// allocation.
	heard listenerTally

	// Dense-engine state: bitset adjacency rows (cached on the graph),
	// flattened for direct word indexing in the listener loop, and their
	// per-row nonzero word windows.
	adjBits      *bitset.Matrix
	adjWords     []uint64 // row u's words at [u*adjStride, (u+1)*adjStride)
	adjStride    int
	rowLo, rowHi []int32

	// Shared per-round scratch. senderNoise is only allocated under
	// SenderFaults — the only model that ever writes it — so the other
	// models pay nothing for it.
	senderNoise []bool  // per-node sender-fault flags this round
	traceTx     []int32 // broadcasters this round (tracing only)
	traceRx     []int32 // receivers this round (tracing only)
}

// autoEngine picks the engine for g. A graph with a closed-form model
// runs implicitly at every n: its rounds resolve from the broadcaster
// total, which no stored adjacency can beat, and such graphs have no CSR
// for another engine to walk. Otherwise Dense when word-parallel
// resolution pays for itself (the graph is dense enough that scanning
// all n bitset rows beats walking the broadcasters' neighbour lists),
// and Sparse for everything else.
func autoEngine(g *graph.Graph) Engine {
	if g.Model() != nil {
		return Implicit
	}
	n := g.N()
	if n >= 64 && g.AvgDegree() >= float64(n)/8 {
		return Dense
	}
	return Sparse
}

// New creates a network over g with the given noise configuration and
// randomness stream. It returns an error if cfg is invalid.
func New[P any](g *graph.Graph, cfg Config, rnd *rng.Stream) (*Network[P], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine := resolveEngine(g, cfg.Engine)
	n := &Network[P]{
		g:      g,
		cfg:    cfg,
		rnd:    rnd,
		engine: engine,
		draw:   makeDrawState(cfg, g),
	}
	if cfg.Fault == SenderFaults {
		n.senderNoise = make([]bool, g.N())
		if n.draw.bulk() {
			n.noisySites = make([]int32, 0, 64)
		}
	}
	switch engine {
	case Dense:
		n.adjBits = g.AdjacencyBits()
		n.adjWords = n.adjBits.Words()
		n.adjStride = n.adjBits.Stride()
		n.rowLo, n.rowHi = n.adjBits.RowRanges()
	case Sparse:
		n.heard = newListenerTally(g.N())
	}
	return n, nil
}

// MustNew is New but panics on error, for configurations known valid.
func MustNew[P any](g *graph.Graph, cfg Config, rnd *rng.Stream) *Network[P] {
	n, err := New[P](g, cfg, rnd)
	if err != nil {
		panic(err)
	}
	return n
}

// Graph returns the underlying graph.
func (n *Network[P]) Graph() *graph.Graph { return n.g }

// Engine returns the resolved execution engine (Sparse, Dense or
// Implicit, never Auto).
func (n *Network[P]) Engine() Engine { return n.engine }

// Stats returns a copy of the accumulated statistics.
func (n *Network[P]) Stats() Stats { return n.stats }

// TraceFunc observes one executed round: the nodes that broadcast and the
// nodes that successfully received a packet. The slices are only valid for
// the duration of the call.
type TraceFunc func(round int, broadcasters, receivers []int32)

// SetTrace registers fn to be invoked after every round. Pass nil to stop
// tracing. Tracing costs O(broadcasters + receivers) per round and nothing
// when unset.
func (n *Network[P]) SetTrace(fn TraceFunc) { n.trace = fn }

// Round returns the number of rounds executed so far.
func (n *Network[P]) Round() int { return n.stats.Rounds }

// Delivery describes one successful reception in a round.
type Delivery[P any] struct {
	To      int
	From    int
	Payload P
}

// StepSet executes one synchronized round.
//
// tx selects the transmitters; the engine reads it and never mutates it,
// so a schedule that does not change between rounds (a star's hub, a
// single link's source) can pass the same set every round with no
// per-round fill or clear. payload[v] is the packet v transmits if
// selected; len(payload) must be N and tx.Len() must be N.
//
// Receptions are reported two ways, combinable:
//
//   - rx, if non-nil (length N), accumulates successful receivers: bit u
//     is set when u receives a packet this round. Bits are only ever
//     added — callers that want per-round sets clear rx between rounds.
//     This is the batched path for callers that only need "who got a
//     packet" (all single-message runners): no closure dispatch at all.
//   - deliver, if non-nil, is invoked once per successful reception with
//     the full (To, From, Payload) triple.
//
// Random draws happen in the canonical order documented in the package
// comment — sender-fault flags for broadcasting nodes in ascending id,
// then receiver-fault flags for eligible listeners in ascending id — and
// receivers are resolved (rx bits set, deliver invoked) in ascending
// receiver id order. Every engine honours this contract, so executions are
// bit-identical across engines.
//
// A deliver callback that panics abandons the round midway and leaves the
// per-round scratch inconsistent, so the network must be discarded, never
// stepped again. The schedules build one network per trial and drop it
// when the trial ends, panicking or not.
func (n *Network[P]) StepSet(tx *bitset.Set, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	nn := n.g.N()
	if tx.Len() != nn || len(payload) != nn {
		panic(fmt.Sprintf("radio: StepSet tx/payload lengths (%d,%d) != N (%d)", tx.Len(), len(payload), nn))
	}
	if rx != nil && rx.Len() != nn {
		panic(fmt.Sprintf("radio: StepSet rx length %d != N (%d)", rx.Len(), nn))
	}
	n.stats.Rounds++
	switch n.engine {
	case Dense:
		n.stepSetDense(tx, payload, rx, deliver)
	case Implicit:
		n.stepSetImplicit(tx, payload, rx, deliver)
	default:
		n.stepSetSparse(tx, payload, rx, deliver)
	}
	n.finishRound(tx)
}

// markBroadcaster performs the per-broadcaster bookkeeping shared by all
// engines: accounting, tracing and the canonical sender-fault decision.
func (n *Network[P]) markBroadcaster(v int) {
	n.stats.Broadcasts++
	if n.trace != nil {
		n.traceTx = append(n.traceTx, int32(v))
	}
	if n.cfg.Fault == SenderFaults {
		noisy := n.draw.site(int32(v), n.rnd)
		n.senderNoise[v] = noisy
		if noisy {
			n.stats.SenderFaults++
			if n.draw.bulk() {
				n.noisySites = append(n.noisySites, int32(v))
			}
		}
	}
}

// markBroadcasters performs the round's broadcaster marking off the tx
// words [txLo, txHi): per site when per-broadcaster bookkeeping is needed
// (tracing, or a contract that draws one coin per site — v1 and v4), in
// bulk otherwise — broadcast accounting by popcount, and under the skip
// and burst contracts the fault sites located by select-the-k-th-set-bit
// jumps instead of a visit to every broadcaster. Decisions and stream
// consumption are identical on both paths (the bulk walks replay the same
// countdowns), so the engines may mix them freely; only the work differs.
func (n *Network[P]) markBroadcasters(txw []uint64, txLo, txHi int) {
	if n.trace == nil && (n.cfg.Fault != SenderFaults || n.draw.bulk()) {
		n.markBroadcastersBulk(txw, txLo, txHi)
		return
	}
	for wi := txLo; wi < txHi; wi++ {
		for w := txw[wi]; w != 0; w &= w - 1 {
			n.markBroadcaster(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// txSelect locates ascending set bits of a word slice by index: locate(k)
// returns the position of the k-th (0-based) set bit. Calls must be made
// with non-decreasing k — the cursor only moves forward, which is what
// makes a whole round's fault locations O(words + faults) instead of
// O(words · faults).
type txSelect struct {
	txw    []uint64
	wi     int // current word
	before int // set bits strictly before word wi
}

func (s *txSelect) locate(k int) int {
	for s.before+bits.OnesCount64(s.txw[s.wi]) <= k {
		s.before += bits.OnesCount64(s.txw[s.wi])
		s.wi++
	}
	w := s.txw[s.wi]
	for j := k - s.before; j > 0; j-- {
		w &= w - 1
	}
	return s.wi*64 + bits.TrailingZeros64(w)
}

// markBroadcastersBulk is the O(faults)-ish marking path: broadcasts
// counted word-parallel, then — under SenderFaults — the active
// contract's span-skipping walk materializes only the faulty sites.
func (n *Network[P]) markBroadcastersBulk(txw []uint64, txLo, txHi int) {
	total := 0
	for wi := txLo; wi < txHi; wi++ {
		total += bits.OnesCount64(txw[wi])
	}
	n.stats.Broadcasts += int64(total)
	if n.cfg.Fault != SenderFaults || total == 0 {
		return
	}
	sel := txSelect{txw: txw, wi: txLo}
	if n.draw.mode == drawBurst {
		n.markBurstBulk(&sel, total)
		return
	}
	d := &n.draw
	idx := 0 // broadcaster sites consumed so far, ascending id order
	for idx < total {
		if d.remaining < 0 {
			d.remaining = d.geom.Draw(n.rnd) - 1
		}
		if d.remaining >= total-idx {
			// Next fault lies beyond this round's sites: consume them all,
			// exactly as the per-site countdown would.
			d.remaining -= total - idx
			return
		}
		idx += d.remaining
		d.remaining = -1
		v := sel.locate(idx)
		n.senderNoise[v] = true
		n.stats.SenderFaults++
		n.noisySites = append(n.noisySites, int32(v))
		idx++
	}
}

// markBurstBulk is the burst contract's span-skipping walk over the
// round's total broadcaster sites: good phases are consumed whole in O(1)
// (they draw nothing per site), bad phases draw one coin per site, and
// only the faulty sites are located. Stream consumption is identical to
// total consecutive site() calls — the same phase-length, init and coin
// draws in the same order — so the per-site and bulk paths interleave
// freely across rounds and engines.
func (n *Network[P]) markBurstBulk(sel *txSelect, total int) {
	d := &n.draw
	if !d.inited {
		d.inited = true
		d.bad = d.initCoin.Draw(n.rnd)
	}
	idx := 0 // broadcaster sites consumed so far, ascending id order
	for idx < total {
		if d.remaining < 0 {
			if d.bad {
				d.remaining = d.badGeom.Draw(n.rnd)
			} else {
				d.remaining = d.goodGeom.Draw(n.rnd)
			}
		}
		if !d.bad {
			// Consume the good span in one step: no draws inside it.
			k := d.remaining
			if k > total-idx {
				k = total - idx
			}
			idx += k
			if d.remaining -= k; d.remaining == 0 {
				d.bad = true
				d.remaining = -1
			}
			continue
		}
		for idx < total {
			if d.badCoin.Draw(n.rnd) {
				v := sel.locate(idx)
				n.senderNoise[v] = true
				n.stats.SenderFaults++
				n.noisySites = append(n.noisySites, int32(v))
			}
			idx++
			if d.remaining--; d.remaining == 0 {
				d.bad = false
				d.remaining = -1
				break
			}
		}
	}
}

// resolveUnique handles listener u whose unique transmitting neighbour is
// from: the canonical receiver-fault draw, delivery accounting, tracing,
// the rx bit and the delivery callback. Shared by both engines.
func (n *Network[P]) resolveUnique(u, from int32, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	if n.cfg.Fault == SenderFaults && n.senderNoise[from] {
		return // content destroyed at the sender
	}
	if n.cfg.Fault == ReceiverFaults && n.draw.site(u, n.rnd) {
		n.stats.ReceiverFaults++
		return
	}
	n.stats.Deliveries++
	if n.trace != nil {
		n.traceRx = append(n.traceRx, u)
	}
	if rx != nil {
		rx.Set(int(u))
	}
	if deliver != nil {
		deliver(Delivery[P]{To: int(u), From: int(from), Payload: payload[from]})
	}
}

// listenerTally is the sparse engine's per-round listener scratch: one
// slot per node, which says what a listener heard this round — 0 nothing,
// v+1 the single transmitting neighbour v, -1 two or more — plus the
// touched set itself, a bitset over node ids and the word window [lo, hi)
// that holds its members. Only the sparse kernel uses it.
//
// The kernel fills and resolves a round in two walks, spelled out in
// stepSetSparse because their bodies are the hot path. The broadcaster
// walk widens the window to cover the broadcaster's sorted neighbour
// list, from its first and last entries, and touches the neighbours: one
// slot load and store each, plus an OR into the touched words. The
// resolution walk visits the window: per word, the members in ascending
// bit order — the canonical draw order, with no sort — reading and
// zeroing each member's slot as it is visited; it clears the word after
// its last member, skipping empty words without a store (most of a
// spread-out window is empty), and finally marks the tally empty. No bit
// is ever set outside the window, so a completed round leaves every slot
// and word zero for the next.
type listenerTally struct {
	slot  []int32  // 0 unheard, v+1 heard only from v, -1 heard from two or more
	words []uint64 // bit u set: u was heard this round, its word not yet walked
	// Every word outside [lo, hi) is zero; lo = len(words), hi = 0 when
	// the set is empty.
	lo, hi int
}

func newListenerTally(n int) listenerTally {
	words := (n + 63) / 64
	return listenerTally{
		slot:  make([]int32, n),
		words: make([]uint64, words),
		lo:    words,
	}
}

// stepSetSparse is the CSR engine: walk the neighbour lists of the
// broadcasters (iterated straight off the tx words), then resolve the
// touched listeners in ascending id order off the tally's word window.
// Cost is O(Σ deg(broadcaster) + touched word window), independent of n
// apart from the tx word scan.
func (n *Network[P]) stepSetSparse(tx *bitset.Set, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	// Mark transmissions and draw sender faults in ascending id order,
	// recording each neighbour's hearing in its slot (see listenerTally).
	h := &n.heard
	slots, words := h.slot, h.words
	txw := tx.Words()
	txLo, txHi := tx.NonzeroRange()
	for wi := txLo; wi < txHi; wi++ {
		for w := txw[wi]; w != 0; w &= w - 1 {
			v := wi*64 + bits.TrailingZeros64(w)
			n.markBroadcaster(v)
			nbrs := n.g.Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			h.lo = min(h.lo, int(nbrs[0]>>6))
			h.hi = max(h.hi, int(nbrs[len(nbrs)-1]>>6)+1)
			heard := int32(v) + 1
			for _, u := range nbrs {
				s := heard
				if slots[u] != 0 {
					s = -1
				}
				slots[u] = s
				words[u>>6] |= 1 << (uint(u) & 63)
			}
		}
	}

	// Resolve receptions in ascending receiver id order, the canonical
	// draw order shared with the other engines, with the tally walk.
	for wi, hi := h.lo, h.hi; wi < hi; wi++ {
		w := words[wi]
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			u := int32(wi<<6 | bits.TrailingZeros64(w))
			s := slots[u]
			slots[u] = 0
			if tx.Test(int(u)) {
				continue // transmitting nodes do not listen
			}
			switch {
			case s < 0:
				n.stats.Collisions++
			case s > 0:
				n.resolveUnique(u, s-1, payload, rx, deliver)
			}
		}
		words[wi] = 0
	}
	h.lo, h.hi = len(words), 0
}

// stepSetDense is the word-parallel engine: each listener's
// transmitting-neighbour count is popcount(adj[u] & tx), 64 candidates
// per word, with the unique sender recovered from the single surviving
// intersection word.
//
// The engine is windowed: per listener it scans only the overlap of the
// round's nonzero tx word window with the listener's adjacency-row window
// (both maintained incrementally, so the overlap costs two compares).
// When broadcasters occupy few words — early Decay phases, a single WCT
// cluster layer, one schedule slot — the overlap is one or two words and
// the per-listener cost collapses from O(n/64) to O(1).
func (n *Network[P]) stepSetDense(tx *bitset.Set, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	txw := tx.Words()
	txLo, txHi := tx.NonzeroRange()
	if txLo == txHi {
		return // silent round: no transmissions, no receptions, no draws
	}

	// Mark transmissions and decide sender faults in ascending id order,
	// straight off the tx words (bulk-marked when no per-site walk is
	// required — see markBroadcasters).
	n.markBroadcasters(txw, txLo, txHi)

	// Resolve receptions in ascending receiver id order, counting
	// transmitting neighbours word-wise over the window overlap with an
	// early exit once a collision is certain. State is hoisted into locals
	// and rows indexed off the flat word slice: the loop body runs once
	// per listener per round and is the simulator's innermost hot path.
	nn := n.g.N()
	adj, stride := n.adjWords, n.adjStride
	rowLo, rowHi := n.rowLo, n.rowHi
	for u, base := 0, 0; u < nn; u, base = u+1, base+stride {
		if txw[u>>6]&(1<<(uint(u)&63)) != 0 {
			continue // transmitting nodes do not listen
		}
		// Clamp the tx window to the row window; an all-zero row has
		// lo > hi (stride, 0), which clamps to an empty overlap.
		lo, hi := txLo, txHi
		if rl := int(rowLo[u]); rl > lo {
			lo = rl
		}
		if rh := int(rowHi[u]); rh < hi {
			hi = rh
		}
		if lo >= hi {
			continue
		}
		count := 0
		var hit uint64 // the intersection word containing the unique bit
		var hitBase int
		for w := lo; w < hi; w++ {
			x := adj[base+w] & txw[w]
			if x == 0 {
				continue
			}
			count += bits.OnesCount64(x)
			if count > 1 {
				break
			}
			hit, hitBase = x, w*64
		}
		switch {
		case count > 1:
			n.stats.Collisions++
		case count == 1:
			n.resolveUnique(int32(u), int32(hitBase+bits.TrailingZeros64(hit)), payload, rx, deliver)
		}
	}
}

// stepSetImplicit is the closed-form engine: no adjacency is consulted at
// all. On the complete graph every listener's transmitting-neighbour
// count is the round's broadcaster total, so the round resolves from that
// total alone. Two or more broadcasters collide at every listener, with no
// draw. A lone broadcaster a reaches every other node: nothing when a is
// sender-faulty, otherwise one resolution per listener in ascending id,
// the canonical draw order shared with the other engines. Per-node state
// is O(1), and only the lone-broadcaster round costs O(n).
func (n *Network[P]) stepSetImplicit(tx *bitset.Set, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	txw := tx.Words()
	txLo, txHi := tx.NonzeroRange()
	if txLo == txHi {
		return // silent round: no transmissions, no receptions, no draws
	}
	n.markBroadcasters(txw, txLo, txHi)
	total := 0
	for wi := txLo; wi < txHi; wi++ {
		total += bits.OnesCount64(txw[wi])
	}
	nn := n.g.N()
	if total > 1 {
		n.stats.Collisions += int64(nn - total)
		return
	}
	a := int32(txLo*64 + bits.TrailingZeros64(txw[txLo]))
	if n.cfg.Fault == SenderFaults && n.senderNoise[a] {
		return // content destroyed at the sender, for every listener at once
	}
	for u := int32(0); u < int32(nn); u++ {
		if u != a {
			n.resolveUnique(u, a, payload, rx, deliver)
		}
	}
}

// finishRound clears the sender-fault flags set this round — off the
// recorded fault sites (O(faults)) when a bulk-capable contract is
// active, off the tx words (O(broadcasters)) otherwise; only the sender
// model ever sets any — closes the draw contract's round boundary, and
// flushes the trace.
func (n *Network[P]) finishRound(tx *bitset.Set) {
	if n.cfg.Fault == SenderFaults {
		if n.draw.bulk() {
			for _, v := range n.noisySites {
				n.senderNoise[v] = false
			}
			n.noisySites = n.noisySites[:0]
		} else {
			txw := tx.Words()
			lo, hi := tx.NonzeroRange()
			for wi := lo; wi < hi; wi++ {
				for w := txw[wi]; w != 0; w &= w - 1 {
					n.senderNoise[wi*64+bits.TrailingZeros64(w)] = false
				}
			}
		}
	}
	n.draw.endRound()
	if n.trace != nil {
		n.trace(n.stats.Rounds-1, n.traceTx, n.traceRx)
		n.traceTx = n.traceTx[:0]
		n.traceRx = n.traceRx[:0]
	}
}
