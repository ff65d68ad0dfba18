package benchreport

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// JobSpec is the canonical description of one sweep job in the registry's
// vocabulary: which schedule to run, on which named workload, under which
// fault model and draw contract, for how many trials of which seed stream.
// It is plain data on purpose — this package sits below the radio and
// broadcast layers (they import it for the performance record), so the
// spec carries names, not types; the serving layer resolves them against
// the registries and rejects what doesn't parse.
//
// Execution-plan knobs (engine, worker counts, chunk size) are
// deliberately absent: they are pure performance choices that the
// simulator guarantees bit-identical results across, so two jobs
// differing only in plan MUST share a key. Everything that feeds the draw
// sequence or the folded statistic is present.
type JobSpec struct {
	Schedule string  `json:"schedule"`
	Topology string  `json:"topology"`
	N        int     `json:"n"`
	K        int     `json:"k,omitempty"`
	Fault    string  `json:"fault"`
	P        float64 `json:"p"`
	Draw     string  `json:"draw,omitempty"`

	// Gilbert-Elliott burst parameters (draw contract v3 only).
	BurstLen  float64 `json:"burstlen,omitempty"`
	BurstBadP float64 `json:"burstbadp,omitempty"`

	// Region-jamming parameters (draw contract v4 only).
	JamQ      float64 `json:"jamq,omitempty"`
	JamRadius int     `json:"jamradius,omitempty"`
	JamBall   bool    `json:"jamball,omitempty"`

	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
}

// normalized returns the spec with the structural normalizations the key
// is defined over: an empty draw contract means v1 (the pre-contract
// default everywhere in the tree), and parameters belonging to a
// non-selected contract are zeroed so they cannot split keys. It does NOT
// resolve a contract's own defaulted parameters (e.g. v3's burst length):
// zero-means-default lives in the radio layer and may legitimately move
// between contract versions, so "default by omission" and "default spelled
// out" hash differently — a conservative cache miss, never a false hit.
func (j JobSpec) normalized() JobSpec {
	if j.Draw == "" {
		j.Draw = "v1"
	}
	// Fault models have a short flag spelling and a String() spelling;
	// both parse, so both must hash alike.
	switch j.Fault {
	case "faultless":
		j.Fault = "none"
	case "sender-faults":
		j.Fault = "sender"
	case "receiver-faults":
		j.Fault = "receiver"
	}
	if j.Draw != "v3" {
		j.BurstLen, j.BurstBadP = 0, 0
	}
	if j.Draw != "v4" {
		j.JamQ, j.JamRadius, j.JamBall = 0, 0, false
	}
	return j
}

// Canonical renders the normalized spec as the stable one-line form the
// plan key hashes: fixed field order, `key=value` pairs, floats in Go's
// shortest round-trip decimal form ('g', precision -1). Two specs have
// equal keys iff their canonical forms are byte-equal, so this is also
// the human-auditable answer to "why did/didn't that job hit the cache".
func (j JobSpec) Canonical() string {
	n := j.normalized()
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "schedule=%s topology=%s n=%d k=%d fault=%s p=%s draw=%s",
		n.Schedule, n.Topology, n.N, n.K, n.Fault, g(n.P), n.Draw)
	fmt.Fprintf(&b, " burstlen=%s burstbadp=%s", g(n.BurstLen), g(n.BurstBadP))
	fmt.Fprintf(&b, " jamq=%s jamradius=%d jamball=%t", g(n.JamQ), n.JamRadius, n.JamBall)
	fmt.Fprintf(&b, " seed=%d trials=%d", n.Seed, n.Trials)
	return b.String()
}

// PlanKey is the cache key for a job's full result body: a versioned
// prefix plus the truncated SHA-256 of the canonical form. The `pk1-`
// prefix names the canonicalization schema, not the code version — it
// bumps exactly when Canonical's field set or rendering changes, which
// invalidates every cached body at once (correct: the bodies embed the
// key). 128 hash bits keep accidental collisions out of reach for any
// plausible cache population.
func (j JobSpec) PlanKey() string {
	sum := sha256.Sum256([]byte(j.Canonical()))
	return "pk1-" + hex.EncodeToString(sum[:16])
}
