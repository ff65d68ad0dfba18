// Command benchgate compares a fresh `noisysim -benchjson` report against
// a checked-in baseline and fails (exit 1) when suite wall clock regresses
// beyond the allowed fraction, or when any engine microbenchmark shared
// with the baseline regresses beyond its own (more generous, since single
// measurements are noisier) fraction. CI runs it after the quick-suite
// benchmark so a PR that slows the whole experiment pipeline — or just the
// per-round engine hot path, which a fast suite can hide — breaks the
// build. Microbenchmarks present only in the current report (newly added
// rows) pass: they gate from the next baseline refresh on.
//
// Usage:
//
//	benchgate -baseline .github/bench/BENCH_sweep.baseline.json -current BENCH_sweep.json
//	benchgate -baseline a.json -current b.json -max-regression 0.30 -max-microbench-regression 0.50
//
// Wall-clock baselines are machine-relative, so the gate only hard-fails
// when the baseline was recorded on the same machine class (equal
// gomaxprocs). On a class mismatch it reports the comparison, asks for the
// baseline to be regenerated from this runner's artifact, and exits 0 —
// a baseline recorded on a different box must not fail unrelated PRs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"noisyradio/internal/benchreport"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "checked-in baseline BENCH_sweep.json")
		currentPath  = flag.String("current", "", "freshly generated BENCH_sweep.json")
		maxReg       = flag.Float64("max-regression", 0.30, "maximum allowed fractional wall-clock regression")
		maxMicroReg  = flag.Float64("max-microbench-regression", 0.50, "maximum allowed fractional ns/round regression per engine microbenchmark")
		minGeomSpd   = flag.Float64("min-geomskip-speedup", 0, "minimum required v1/v2 faultdraw ns-per-round ratio at p=0.001 n=100000 (0 disables)")
		maxBurstRat  = flag.Float64("max-burstdraw-ratio", 0, "maximum allowed v3/v2 faultdraw ns-per-round ratio at matched p=0.001 n=100000 (0 disables)")
		minCacheSpd  = flag.Float64("min-cachehit-speedup", 0, "minimum required cold/hit request-time ratio for the sweep-service result cache (0 disables)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		os.Exit(2)
	}
	baseline, err := benchreport.Load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	current, err := benchreport.Load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	verdict, err := gate(baseline, current, *maxReg, *maxMicroReg)
	fmt.Println("benchgate:", verdict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL:", err)
		os.Exit(1)
	}
	if *minGeomSpd > 0 {
		verdict, err := gateGeomSkip(current, *minGeomSpd)
		if verdict != "" {
			fmt.Println("benchgate:", verdict)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", err)
			os.Exit(1)
		}
	}
	if *maxBurstRat > 0 {
		verdict, err := gateBurstDraw(current, *maxBurstRat)
		if verdict != "" {
			fmt.Println("benchgate:", verdict)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", err)
			os.Exit(1)
		}
	}
	if *minCacheSpd > 0 {
		verdict, err := gateCacheHit(current, *minCacheSpd)
		if verdict != "" {
			fmt.Println("benchgate:", verdict)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", err)
			os.Exit(1)
		}
	}
}

// The microbenchmark rows the sweep-service cache gate compares: one
// representative job submitted cold (executes the sweep; the median of
// five misses at distinct seeds) and as a cache hit (replays the stored
// body; the median of five windows of 20 replays each), both measured as
// ns per request handled in process by Server.ServeHTTP, with no socket
// or client decode (serve.CacheMicrobench).
const (
	cacheColdRow = "servecache/cold/decay-complete-4096"
	cacheHitRow  = "servecache/hit/decay-complete-4096"
)

// gateCacheHit enforces the result-cache acceptance floor against the
// *current* report alone: replaying a cached job body must be at least
// minSpeedup times faster than executing the job, both handled by the
// service's HTTP handler. Like the other absolute gates no baseline is involved — a
// cache hit that recomputes anything (or a cold path that got suspiciously
// cheap, breaking the contrast) fails regardless of history.
func gateCacheHit(current benchreport.Report, minSpeedup float64) (string, error) {
	rows := make(map[string]benchreport.Microbench, len(current.Microbench))
	for _, m := range current.Microbench {
		rows[m.Name] = m
	}
	cold, okC := rows[cacheColdRow]
	hit, okH := rows[cacheHitRow]
	if !okC || !okH {
		return "", fmt.Errorf("cachehit gate: report lacks %q or %q", cacheColdRow, cacheHitRow)
	}
	if cold.NsPerRound <= 0 || hit.NsPerRound <= 0 {
		return "", fmt.Errorf("cachehit gate: non-positive ns/request (cold %.1f, hit %.1f)", cold.NsPerRound, hit.NsPerRound)
	}
	speedup := cold.NsPerRound / hit.NsPerRound
	summary := fmt.Sprintf("servecache hit %.0f ns/request vs cold %.0f: %.0fx (floor %.0fx)",
		hit.NsPerRound, cold.NsPerRound, speedup, minSpeedup)
	if speedup < minSpeedup {
		return summary, fmt.Errorf("%s", summary)
	}
	return "ok — " + summary, nil
}

// The microbenchmark rows the geometric-skip speedup gate compares: the
// sender-fault draw kernel over 10⁵ sites per round in the sparse-failure
// regime (p = 0.001), under the per-site Bernoulli contract (v1) and the
// geometric-skip contract (v2).
const (
	geomSkipV1Row = "faultdraw/v1/p=0.001/n=100000"
	geomSkipV2Row = "faultdraw/v2/p=0.001/n=100000"
)

// gateGeomSkip enforces the draw-contract acceptance floor against the
// *current* report alone: at sparse fault rates the geometric-skip draw
// (v2) must be at least minSpeedup times cheaper per round than the
// per-site Bernoulli draw (v1) on the same site count. This is an
// absolute property of the kernel, so no baseline is involved.
func gateGeomSkip(current benchreport.Report, minSpeedup float64) (string, error) {
	rows := make(map[string]benchreport.Microbench, len(current.Microbench))
	for _, m := range current.Microbench {
		rows[m.Name] = m
	}
	v1, ok1 := rows[geomSkipV1Row]
	v2, ok2 := rows[geomSkipV2Row]
	if !ok1 || !ok2 {
		return "", fmt.Errorf("geomskip gate: report lacks %q or %q", geomSkipV1Row, geomSkipV2Row)
	}
	if v1.NsPerRound <= 0 || v2.NsPerRound <= 0 {
		return "", fmt.Errorf("geomskip gate: non-positive ns/round (v1 %.1f, v2 %.1f)", v1.NsPerRound, v2.NsPerRound)
	}
	speedup := v1.NsPerRound / v2.NsPerRound
	summary := fmt.Sprintf("faultdraw v2 %.0f ns/round vs v1 %.0f at p=0.001 n=100000: %.2fx (floor %.2fx)",
		v2.NsPerRound, v1.NsPerRound, speedup, minSpeedup)
	if speedup < minSpeedup {
		return summary, fmt.Errorf("%s", summary)
	}
	return "ok — " + summary, nil
}

// The microbenchmark rows the burst-draw overhead gate compares: the same
// sparse-regime draw kernel under the Gilbert–Elliott contract (v3, default
// burst shape) and the geometric-skip contract (v2) at the same marginal p.
const (
	burstDrawV2Row = "faultdraw/v2/p=0.001/n=100000"
	burstDrawV3Row = "faultdraw/v3/p=0.001/n=100000"
)

// gateBurstDraw enforces the correlated-noise acceptance ceiling against
// the *current* report alone: the v3 burst sampler — one geometric per
// phase plus a Bernoulli per bad site — must stay within maxRatio times
// the v2 geometric-skip cost at the same marginal fault rate. Bursts buy
// correlation structure, not speed, so the gate is a ceiling where the
// geomskip gate is a floor; it keeps a careless v3 bulk walk from
// regressing to per-site cost while still allowing the honest overhead of
// tracking two phases.
func gateBurstDraw(current benchreport.Report, maxRatio float64) (string, error) {
	rows := make(map[string]benchreport.Microbench, len(current.Microbench))
	for _, m := range current.Microbench {
		rows[m.Name] = m
	}
	v2, ok2 := rows[burstDrawV2Row]
	v3, ok3 := rows[burstDrawV3Row]
	if !ok2 || !ok3 {
		return "", fmt.Errorf("burstdraw gate: report lacks %q or %q", burstDrawV2Row, burstDrawV3Row)
	}
	if v2.NsPerRound <= 0 || v3.NsPerRound <= 0 {
		return "", fmt.Errorf("burstdraw gate: non-positive ns/round (v2 %.1f, v3 %.1f)", v2.NsPerRound, v3.NsPerRound)
	}
	ratio := v3.NsPerRound / v2.NsPerRound
	summary := fmt.Sprintf("faultdraw v3 %.0f ns/round vs v2 %.0f at p=0.001 n=100000: %.2fx (ceiling %.2fx)",
		v3.NsPerRound, v2.NsPerRound, ratio, maxRatio)
	if ratio > maxRatio {
		return summary, fmt.Errorf("%s", summary)
	}
	return "ok — " + summary, nil
}

// gate returns a human-readable verdict and a non-nil error when current
// regresses more than maxReg (a fraction, e.g. 0.30 for 30%) in suite wall
// clock, or more than maxMicroReg in any engine microbenchmark both
// reports share, against a comparable baseline. Reports from different
// machine classes (gomaxprocs mismatch) never fail: the verdict asks for a
// baseline refresh instead.
func gate(baseline, current benchreport.Report, maxReg, maxMicroReg float64) (string, error) {
	if baseline.WallSeconds <= 0 {
		return "", fmt.Errorf("baseline wall clock %.3fs is not positive — regenerate the baseline", baseline.WallSeconds)
	}
	if current.WallSeconds <= 0 {
		return "", fmt.Errorf("current wall clock %.3fs is not positive", current.WallSeconds)
	}
	if baseline.Suite != current.Suite || baseline.Quick != current.Quick {
		return "", fmt.Errorf("reports not comparable: baseline (suite=%q quick=%v) vs current (suite=%q quick=%v)",
			baseline.Suite, baseline.Quick, current.Suite, current.Quick)
	}
	summary := fmt.Sprintf("wall %.2fs vs baseline %.2fs (%+.0f%%, budget %.0f%%), %.0f rows/s, %.1f allocs/trial",
		current.WallSeconds, baseline.WallSeconds,
		100*(current.WallSeconds/baseline.WallSeconds-1), 100*maxReg,
		current.RowsPerSec, current.AllocsPerTrial)
	if baseline.GoMaxProcs != current.GoMaxProcs {
		return fmt.Sprintf("SKIPPED (machine class changed: baseline gomaxprocs=%d, current=%d) — regenerate the baseline from this runner's BENCH_sweep.json artifact; %s",
			baseline.GoMaxProcs, current.GoMaxProcs, summary), nil
	}
	if ratio := current.WallSeconds / baseline.WallSeconds; ratio > 1+maxReg {
		return summary, fmt.Errorf("wall clock %.2fs is %.0f%% over the %.2fs baseline (budget %.0f%%)",
			current.WallSeconds, 100*(ratio-1), baseline.WallSeconds, 100*maxReg)
	}
	if err := gateMicrobench(baseline.Microbench, current.Microbench, maxMicroReg); err != nil {
		return summary, err
	}
	return "ok — " + summary, nil
}

// gateMicrobench fails when any microbenchmark present in both reports
// regresses in ns/round beyond maxMicroReg, or allocates per round where
// the baseline did not. Rows only one side has are ignored: removing a row
// is a deliberate edit reviewed with the baseline, and a new row starts
// gating once a refreshed baseline records it.
func gateMicrobench(baseline, current []benchreport.Microbench, maxMicroReg float64) error {
	base := make(map[string]benchreport.Microbench, len(baseline))
	for _, m := range baseline {
		base[m.Name] = m
	}
	var violations []string
	for _, m := range current {
		b, ok := base[m.Name]
		if !ok || b.NsPerRound <= 0 {
			continue
		}
		if ratio := m.NsPerRound / b.NsPerRound; ratio > 1+maxMicroReg {
			violations = append(violations, fmt.Sprintf("%s: %.0f ns/round is %.0f%% over the %.0f ns baseline",
				m.Name, m.NsPerRound, 100*(ratio-1), b.NsPerRound))
		}
		if m.AllocsPerRound > b.AllocsPerRound {
			violations = append(violations, fmt.Sprintf("%s: %.2f allocs/round, baseline had %.2f",
				m.Name, m.AllocsPerRound, b.AllocsPerRound))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d microbenchmark regression(s) (budget %.0f%%):\n  %s",
			len(violations), 100*maxMicroReg, strings.Join(violations, "\n  "))
	}
	return nil
}
