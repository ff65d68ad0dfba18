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
// follow the same ascending-id order. Every engine decides the sender
// faults of a word of 64 broadcaster ids at once, and the sparse and
// implicit engines decide the receiver faults of a word of 64 listener
// ids at once, before they report any of that word's receivers, so a
// delivery callback must not draw from the network's stream (none does).
// A (graph, seed, driver, contract) quadruple therefore always yields the
// identical execution, regardless of the execution engine below. The
// engine is not safe for concurrent use; run independent trials on
// independent Network values.
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
//   - Sparse applies the broadcasters' word rows (graph.Graph.WordRow:
//     each neighbour list as (word index, 64-bit mask) pairs) to a
//     bit-sliced tally — one word of "heard once" and one of "heard
//     twice" bits per 64 listeners — so a pair updates a word of
//     listeners at once, and resolves the touched listeners a word at a
//     time, doing O(Σ pairs(broadcaster) + touched word window) work per
//     round. A pair never covers fewer neighbours than one, and a star
//     hub's or WCT sender's row of consecutive ids is a few full words,
//     so it runs every graph that has a CSR, dense G(n, p) included.
//   - Dense resolves the channel word-parallel: the broadcasting set is a
//     bitset and a listener's transmitting-neighbour count is
//     popcount(adj[u] & tx), 64 candidate senders per machine word, doing
//     O(n²/64) work per round. Auto never picks it: it runs only when
//     forced, as the differential suite's independent reference. One
//     straight listener loop serves every n.
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
// with a model implicitly and every other graph sparse. A forced engine
// the graph cannot support (Sparse/Dense on the complete graph, which has
// no CSR, Implicit on a graph with no model) falls back to the Auto
// choice — benign, because engines are interchangeable by construction. Because all engines consume the rng.Stream in the same
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
	// a closed-form model, at every n (graph.Complete's graphs), and
	// Sparse for every other graph. The zero value.
	Auto Engine = iota
	// Sparse applies the broadcasters' word rows (graph.Graph.WordRow)
	// to a bit-sliced listener tally.
	Sparse
	// Dense resolves receptions word-parallel over bitset adjacency rows.
	// It materialises the graph's Θ(n²/8)-byte bit-matrix adjacency view
	// on construction (cached on the graph, shared across networks). Auto
	// never picks it; it is the reference the differential tests hold the
	// sparse engine to.
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
	// Engine selects the execution engine; the zero value Auto runs a
	// graph with a model implicitly and every other graph sparse. Purely a
	// performance knob: results are bit-identical across engines.
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
// any engine, goes through here: a word of sites at a time (mask) for
// every engine's sender sites and the sparse and implicit engines'
// receiver sites, a site at a time (site) for the dense engine's
// receiver sites. mask consumes the stream exactly as site called per
// bit would, so the contract is enforced in exactly one place.
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

// mask decides the canonical sites of word wi — node wi·64 + b for each
// set bit b of w, in ascending order — and returns the faulty ones,
// consuming the stream exactly as site() called bit by bit would, so v2's
// countdown, v3's phase and v4's jam prelude carry across bits, words and
// calls as they do across sites. v1's per-site coins are one
// rng.Bernoulli.Mask call. v2 and v3 skip spans a word at a time, since
// most of their sites draw nothing: a v2 countdown that outlasts the
// word's sites is cut by their count, and otherwise that many low sites
// are dropped and the next one is the fault; a v3 good phase that
// outlasts the word is consumed whole, and otherwise its sites are
// dropped and the phase turns bad, where each site draws one badCoin.
// v4 goes through site() per bit. An empty word draws nothing.
func (d *drawState) mask(wi int, w uint64, r *rng.Stream) uint64 {
	var faulty uint64
	switch d.mode {
	case drawPerSite:
		return d.coin.Mask(r, w)
	case drawSkip:
		for w != 0 {
			if d.remaining < 0 {
				d.remaining = d.geom.Draw(r) - 1
			}
			c := bits.OnesCount64(w)
			if d.remaining >= c {
				d.remaining -= c
				return faulty
			}
			for k := d.remaining; k > 0; k-- {
				w &= w - 1
			}
			faulty |= w & -w
			w &= w - 1
			d.remaining = -1
		}
	case drawBurst:
		if w != 0 && !d.inited {
			d.inited = true
			d.bad = d.initCoin.Draw(r)
		}
		for w != 0 {
			if d.remaining < 0 {
				if d.bad {
					d.remaining = d.badGeom.Draw(r)
				} else {
					d.remaining = d.goodGeom.Draw(r)
				}
			}
			if !d.bad {
				c := bits.OnesCount64(w)
				if d.remaining > c {
					d.remaining -= c
					return faulty
				}
				for k := d.remaining; k > 0; k-- {
					w &= w - 1
				}
				d.bad = true
				d.remaining = -1
				continue
			}
			if d.badCoin.Draw(r) {
				faulty |= w & -w
			}
			w &= w - 1
			if d.remaining--; d.remaining == 0 {
				d.bad = false
				d.remaining = -1
			}
		}
	default:
		for m := w; m != 0; m &= m - 1 {
			if d.site(int32(wi<<6|bits.TrailingZeros64(m)), r) {
				faulty |= m & -m
			}
		}
	}
	return faulty
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

	// Sparse-engine per-round scratch, reused across rounds to avoid
	// allocation.
	heard listenerTally

	// Dense-engine state: bitset adjacency rows (cached on the graph),
	// flattened for direct word indexing in the listener loop, and their
	// per-row nonzero word windows. Under the sender model, faultyTx[wi]
	// holds tx word wi's faulty broadcasters; it is written on every round
	// word wi broadcasts and read only in that round, so it needs no clear.
	adjBits      *bitset.Matrix
	adjWords     []uint64 // row u's words at [u*adjStride, (u+1)*adjStride)
	adjStride    int
	rowLo, rowHi []int32
	faultyTx     []uint64

	// Shared per-round scratch.
	traceTx []int32 // broadcasters this round (tracing only)
	traceRx []int32 // receivers this round (tracing only)
}

// autoEngine picks the engine for g. A graph with a closed-form model
// runs implicitly at every n: its rounds resolve from the broadcaster
// total, which no stored adjacency can beat, and such graphs have no CSR
// for another engine to walk. Every other graph runs sparse: its word
// rows touch a word of listeners per pair, so even on G(1024, 0.5) a
// round costs a fraction of the dense engine's scan of all n bitset rows
// (DESIGN.md has the ratios).
func autoEngine(g *graph.Graph) Engine {
	if g.Model() != nil {
		return Implicit
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
	switch engine {
	case Dense:
		n.adjBits = g.AdjacencyBits()
		n.adjWords = n.adjBits.Words()
		n.adjStride = n.adjBits.Stride()
		n.rowLo, n.rowHi = n.adjBits.RowRanges()
		if cfg.Fault == SenderFaults {
			n.faultyTx = make([]uint64, (g.N()+63)/64)
		}
	case Sparse:
		n.heard = newListenerTally(g.N(), cfg.Fault == SenderFaults)
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
// bit-identical across engines. The sparse and implicit engines decide a
// word of 64 listener ids' receiver faults before they report any of
// that word's receivers, so deliver must not draw from the network's
// rng.Stream: its draws would land between the word's and the next
// word's, where the dense engine's per-listener draws put them elsewhere.
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
	n.finishRound()
}

// appendWord appends the node ids of w's set bits, word wi, ascending.
func appendWord(ids []int32, wi int, w uint64) []int32 {
	for ; w != 0; w &= w - 1 {
		ids = append(ids, int32(wi<<6|bits.TrailingZeros64(w)))
	}
	return ids
}

// markWord performs the bookkeeping shared by every engine for the
// broadcasters w of tx word wi: accounting, tracing and, under the sender
// model, the canonical sender-fault decisions, one drawState.mask call
// for the word. It returns the faulty broadcasters.
func (n *Network[P]) markWord(wi int, w uint64) (faulty uint64) {
	n.stats.Broadcasts += int64(bits.OnesCount64(w))
	if n.trace != nil {
		n.traceTx = appendWord(n.traceTx, wi, w)
	}
	if n.cfg.Fault != SenderFaults {
		return 0
	}
	faulty = n.draw.mask(wi, w, n.rnd)
	n.stats.SenderFaults += int64(bits.OnesCount64(faulty))
	return faulty
}

// resolveUnique handles listener u whose unique transmitting neighbour is
// from: the canonical receiver-fault draw, delivery accounting, tracing,
// the rx bit and the delivery callback. Only the dense engine resolves a
// listener at a time, through drawState.site, so the differential suite
// holds the other engines' word walks (resolveWord) to an independent
// per-site reference.
func (n *Network[P]) resolveUnique(u, from int32, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	if n.cfg.Fault == SenderFaults && n.faultyTx[from>>6]&(1<<(from&63)) != 0 {
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

// listenerTally is the sparse engine's per-round listener scratch,
// bit-sliced over node ids: bit u of once says listener u heard at least
// one transmitting neighbour this round, bit u of twice that it heard two
// or more, and — under the sender model only — bit u of noisy that one of
// them was sender-faulty. Every word outside the window [lo, hi) is zero.
// from holds each listener's last transmitter; only a deliver callback
// reads it, so it is written, a mask bit at a time, only on rounds that
// pass one, and allocated on the first such round. A single-message
// trial's tally is therefore 2 bits per node (3 under the sender model).
// Only the sparse kernel uses it.
//
// The kernel fills and resolves a round in two walks, spelled out in
// stepSetSparse because their bodies are the hot path. The broadcaster
// walk decides a tx word's sender faults at once (markWord), then widens
// the window to cover each broadcaster's word row (graph.Graph.WordRow),
// from its first and last word indices, and applies each pair (i, m):
// twice[i] |= once[i] & m, then once[i] |= m, and noisy[i] |= m for a
// sender-faulty broadcaster. Each update acts on every bit independently,
// so a pair is exactly its neighbours touched one at a time, in one
// read-modify-write. The resolution walk visits the window a word at a
// time: twice &^ tx are the word's collisions, once &^ twice &^ tx &^
// noisy its receivers, and the word is zeroed. resolveWord then decides
// the receivers' faults at once, counts the survivors by popcount and ORs
// them into rx whole; only a deliver callback visits them one at a time,
// in ascending bit order, with no sort. Empty words are skipped without a
// store (most of a spread-out window is empty), and the tally is finally
// marked empty. No bit is ever set outside the window, so a completed
// round leaves every word zero for the next.
type listenerTally struct {
	once  []uint64 // bit u set: u heard at least one transmitting neighbour this round
	twice []uint64 // bit u set: u heard two or more
	noisy []uint64 // bit u set: a transmitting neighbour of u was sender-faulty; nil outside the sender model
	from  []int32  // u's last transmitter, on rounds with a deliver callback; nil until the first
	// Every word outside [lo, hi) is zero; lo = len(once), hi = 0 when
	// the tally is empty.
	lo, hi int
}

func newListenerTally(n int, senderFaults bool) listenerTally {
	words := (n + 63) / 64
	h := listenerTally{
		once:  make([]uint64, words),
		twice: make([]uint64, words),
		lo:    words,
	}
	if senderFaults {
		h.noisy = make([]uint64, words)
	}
	return h
}

// stepSetSparse is the CSR engine: apply the word rows of the
// broadcasters (iterated straight off the tx words) to the tally, then
// resolve the touched listeners a word at a time off the tally's word
// window, in ascending id order. Cost is O(Σ pairs(broadcaster) + touched
// word window), independent of n apart from the tx word scan, plus
// O(Σ deg(broadcaster)) for the from column on rounds with a deliver
// callback.
func (n *Network[P]) stepSetSparse(tx *bitset.Set, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	// Mark transmissions and draw sender faults in ascending id order,
	// recording each neighbour's hearing in the tally (see listenerTally).
	h := &n.heard
	once, noisy := h.once, h.noisy
	twice := h.twice[:len(once)] // equal lengths, so one bounds check covers both
	var from []int32
	if deliver != nil {
		if h.from == nil {
			h.from = make([]int32, n.g.N())
		}
		from = h.from
	}
	txw := tx.Words()
	txLo, txHi := tx.NonzeroRange()
	for wi := txLo; wi < txHi; wi++ {
		w := txw[wi]
		if w == 0 {
			continue
		}
		faulty := n.markWord(wi, w)
		for ; w != 0; w &= w - 1 {
			v := wi*64 + bits.TrailingZeros64(w)
			words, masks := n.g.WordRow(v)
			if len(words) == 0 {
				continue
			}
			masks = masks[:len(words)] // equal lengths, so masks[j] needs no bounds check
			h.lo = min(h.lo, int(words[0]))
			h.hi = max(h.hi, int(words[len(words)-1])+1)
			for j, i := range words {
				m, o := masks[j], once[i]
				twice[i] |= o & m
				once[i] = o | m
			}
			if faulty&w&-w != 0 {
				for j, i := range words {
					noisy[i] |= masks[j]
				}
			}
			if from != nil {
				for j, i := range words {
					for m := masks[j]; m != 0; m &= m - 1 {
						from[int(i)<<6|bits.TrailingZeros64(m)] = int32(v)
					}
				}
			}
		}
	}

	// Resolve receptions a word at a time, in ascending receiver id order,
	// the canonical draw order shared with the other engines. Transmitting
	// nodes do not listen, and a listener whose one transmitting neighbour
	// is sender-faulty hears noise: no draw, no delivery.
	if h.lo >= h.hi {
		return // no listener touched: the tally is already empty
	}
	var rxw []uint64
	if rx != nil {
		rxw = rx.Words()
	}
	for i, heard := range once[h.lo:h.hi] {
		if heard == 0 {
			continue
		}
		wi := h.lo + i
		collided, x := twice[wi], txw[wi]
		once[wi], twice[wi] = 0, 0
		n.stats.Collisions += int64(bits.OnesCount64(collided &^ x))
		unique := heard &^ collided &^ x
		if noisy != nil {
			unique &^= noisy[wi]
			noisy[wi] = 0
		}
		if unique == 0 {
			continue
		}
		for rcv := n.resolveWord(wi, unique, rxw); deliver != nil && rcv != 0; rcv &= rcv - 1 {
			u := wi<<6 | bits.TrailingZeros64(rcv)
			v := from[u]
			deliver(Delivery[P]{To: u, From: int(v), Payload: payload[v]})
		}
	}
	h.lo, h.hi = len(once), 0
}

// resolveWord finishes word wi's listeners that heard exactly one
// transmission, clean at its sender — the set bits of unique: under the
// receiver model it decides their canonical receiver-fault draws at once
// (drawState.mask), then counts the survivors as deliveries, ORs them into
// rx whole and records them for the trace. It returns the survivors, which
// a deliver callback walks in ascending id order. Shared by the sparse and
// implicit engines; the dense engine resolves a listener at a time
// (resolveUnique).
func (n *Network[P]) resolveWord(wi int, unique uint64, rxw []uint64) uint64 {
	if n.cfg.Fault == ReceiverFaults {
		faulty := n.draw.mask(wi, unique, n.rnd)
		n.stats.ReceiverFaults += int64(bits.OnesCount64(faulty))
		unique &^= faulty
	}
	n.stats.Deliveries += int64(bits.OnesCount64(unique))
	if rxw != nil {
		rxw[wi] |= unique
	}
	if n.trace != nil {
		n.traceRx = appendWord(n.traceRx, wi, unique)
	}
	return unique
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

	// Mark transmissions and decide sender faults a tx word at a time, in
	// ascending id order, keeping each word's faulty broadcasters for
	// resolveUnique.
	for wi := txLo; wi < txHi; wi++ {
		if w := txw[wi]; w != 0 {
			faulty := n.markWord(wi, w)
			if n.faultyTx != nil {
				n.faultyTx[wi] = faulty
			}
		}
	}

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
// sender-faulty, otherwise its n − 1 listeners resolve a word at a time
// (resolveWord) in ascending id, the canonical draw order shared with the
// other engines. Per-node state is O(1), and only the lone-broadcaster
// round costs O(n/64) words.
func (n *Network[P]) stepSetImplicit(tx *bitset.Set, payload []P, rx *bitset.Set, deliver func(d Delivery[P])) {
	txw := tx.Words()
	txLo, txHi := tx.NonzeroRange()
	if txLo == txHi {
		return // silent round: no transmissions, no receptions, no draws
	}
	// Mark transmissions and decide sender faults a tx word at a time. A
	// lone broadcaster is sender-faulty exactly when some word's faults
	// are nonzero, so the OR of the words' faults is all the round keeps.
	total := 0
	var faulty uint64
	for wi := txLo; wi < txHi; wi++ {
		if w := txw[wi]; w != 0 {
			total += bits.OnesCount64(w)
			faulty |= n.markWord(wi, w)
		}
	}
	nn := n.g.N()
	if total > 1 {
		n.stats.Collisions += int64(nn - total)
		return
	}
	if faulty != 0 {
		return // content destroyed at the sender, for every listener at once
	}
	a := txLo*64 + bits.TrailingZeros64(txw[txLo])
	var rxw []uint64
	if rx != nil {
		rxw = rx.Words()
	}
	for wi := 0; wi*64 < nn; wi++ {
		listeners := ^uint64(0)
		if rest := nn - wi*64; rest < 64 {
			listeners = 1<<rest - 1
		}
		if wi == a>>6 {
			listeners &^= 1 << (a & 63)
		}
		for rcv := n.resolveWord(wi, listeners, rxw); deliver != nil && rcv != 0; rcv &= rcv - 1 {
			deliver(Delivery[P]{To: wi<<6 | bits.TrailingZeros64(rcv), From: a, Payload: payload[a]})
		}
	}
}

// finishRound closes the draw contract's round boundary and flushes the
// trace.
func (n *Network[P]) finishRound() {
	n.draw.endRound()
	if n.trace != nil {
		n.trace(n.stats.Rounds-1, n.traceTx, n.traceRx)
		n.traceTx = n.traceTx[:0]
		n.traceRx = n.traceRx[:0]
	}
}
