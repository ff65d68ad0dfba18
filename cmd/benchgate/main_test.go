package main

import (
	"strings"
	"testing"

	"noisyradio/internal/benchreport"
)

func rep(wall float64) benchreport.Report {
	return benchreport.Report{Suite: "all", Quick: true, GoMaxProcs: 4, WallSeconds: wall}
}

func TestGateWithinBudget(t *testing.T) {
	if _, err := gate(rep(10), rep(12.9), 0.30, 0.50); err != nil {
		t.Fatalf("29%% regression rejected at 30%% budget: %v", err)
	}
}

func TestGateOverBudget(t *testing.T) {
	_, err := gate(rep(10), rep(13.1), 0.30, 0.50)
	if err == nil {
		t.Fatal("31% regression accepted at 30% budget")
	}
	if !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestGateImprovementAlwaysPasses(t *testing.T) {
	if _, err := gate(rep(10), rep(3), 0.30, 0.50); err != nil {
		t.Fatalf("improvement rejected: %v", err)
	}
}

func TestGateMachineClassMismatchSkips(t *testing.T) {
	baseline := rep(1)
	baseline.GoMaxProcs = 1
	current := rep(10) // 10x slower but on a different machine class
	verdict, err := gate(baseline, current, 0.30, 0.50)
	if err != nil {
		t.Fatalf("cross-machine comparison failed the gate: %v", err)
	}
	if !strings.Contains(verdict, "SKIPPED") || !strings.Contains(verdict, "regenerate") {
		t.Fatalf("verdict should ask for a baseline refresh: %q", verdict)
	}
}

func TestGateIncomparableReports(t *testing.T) {
	other := rep(10)
	other.Suite = "E9"
	if _, err := gate(rep(10), other, 0.30, 0.50); err == nil {
		t.Fatal("different suites compared")
	}
	full := rep(10)
	full.Quick = false
	if _, err := gate(rep(10), full, 0.30, 0.50); err == nil {
		t.Fatal("quick vs full compared")
	}
}

func TestGateRejectsEmptyBaseline(t *testing.T) {
	if _, err := gate(benchreport.Report{}, rep(1), 0.30, 0.50); err == nil {
		t.Fatal("zero baseline accepted")
	}
}

func microRep(wall float64, micro ...benchreport.Microbench) benchreport.Report {
	r := rep(wall)
	r.Microbench = micro
	return r
}

func TestGateMicrobenchWithinBudget(t *testing.T) {
	baseline := microRep(10, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 1000})
	current := microRep(10, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 1490})
	if _, err := gate(baseline, current, 0.30, 0.50); err != nil {
		t.Fatalf("49%% microbench regression rejected at 50%% budget: %v", err)
	}
}

func TestGateMicrobenchOverBudget(t *testing.T) {
	baseline := microRep(10, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 1000})
	current := microRep(10, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 1510})
	_, err := gate(baseline, current, 0.30, 0.50)
	if err == nil {
		t.Fatal("51% microbench regression accepted at 50% budget")
	}
	if !strings.Contains(err.Error(), "stepset/dense") {
		t.Fatalf("error does not name the regressing row: %v", err)
	}
}

func TestGateMicrobenchNewRowPasses(t *testing.T) {
	baseline := microRep(10)
	current := microRep(10, benchreport.Microbench{Name: "stepset/new", NsPerRound: 9999})
	if _, err := gate(baseline, current, 0.30, 0.50); err != nil {
		t.Fatalf("row missing from baseline failed the gate: %v", err)
	}
}

func TestGateMicrobenchAllocRegression(t *testing.T) {
	baseline := microRep(10, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 1000, AllocsPerRound: 0})
	current := microRep(10, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 1000, AllocsPerRound: 2})
	if _, err := gate(baseline, current, 0.30, 0.50); err == nil {
		t.Fatal("new per-round allocations accepted")
	}
}

func TestGateMicrobenchSkippedOnMachineMismatch(t *testing.T) {
	baseline := microRep(1, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 10})
	baseline.GoMaxProcs = 1
	current := microRep(1, benchreport.Microbench{Name: "stepset/dense", NsPerRound: 10000})
	verdict, err := gate(baseline, current, 0.30, 0.50)
	if err != nil {
		t.Fatalf("cross-machine microbench comparison failed the gate: %v", err)
	}
	if !strings.Contains(verdict, "SKIPPED") {
		t.Fatalf("verdict should be a skip: %q", verdict)
	}
}

func stepBatchRep(scalarNs, batchNs float64) benchreport.Report {
	return microRep(10,
		benchreport.Microbench{Name: stepBatchScalarRow, NsPerRound: scalarNs},
		benchreport.Microbench{Name: stepBatchBatchRow, NsPerRound: batchNs},
	)
}

func TestGateStepBatchAboveFloor(t *testing.T) {
	if _, err := gateStepBatch(stepBatchRep(4500, 1500), 2.5); err != nil {
		t.Fatalf("3x speedup rejected at 2.5x floor: %v", err)
	}
}

func TestGateStepBatchBelowFloor(t *testing.T) {
	_, err := gateStepBatch(stepBatchRep(4500, 2000), 2.5)
	if err == nil {
		t.Fatal("2.25x speedup accepted at 2.5x floor")
	}
	if !strings.Contains(err.Error(), "floor") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestGateStepBatchMissingRows(t *testing.T) {
	if _, err := gateStepBatch(microRep(10), 2.5); err == nil {
		t.Fatal("report without stepbatch rows passed the speedup gate")
	}
	onlyScalar := microRep(10, benchreport.Microbench{Name: stepBatchScalarRow, NsPerRound: 4500})
	if _, err := gateStepBatch(onlyScalar, 2.5); err == nil {
		t.Fatal("report without the batch row passed the speedup gate")
	}
}

func TestGateStepBatchRejectsNonPositive(t *testing.T) {
	if _, err := gateStepBatch(stepBatchRep(0, 2000), 2.5); err == nil {
		t.Fatal("non-positive scalar ns accepted")
	}
}

func geomSkipRep(v1Ns, v2Ns float64) benchreport.Report {
	return microRep(10,
		benchreport.Microbench{Name: geomSkipV1Row, NsPerRound: v1Ns},
		benchreport.Microbench{Name: geomSkipV2Row, NsPerRound: v2Ns},
	)
}

func TestGateGeomSkipAboveFloor(t *testing.T) {
	if _, err := gateGeomSkip(geomSkipRep(60000, 9000), 5.0); err != nil {
		t.Fatalf("6.7x speedup rejected at 5x floor: %v", err)
	}
}

func TestGateGeomSkipBelowFloor(t *testing.T) {
	_, err := gateGeomSkip(geomSkipRep(60000, 20000), 5.0)
	if err == nil {
		t.Fatal("3x speedup accepted at 5x floor")
	}
	if !strings.Contains(err.Error(), "floor") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestGateGeomSkipMissingRows(t *testing.T) {
	if _, err := gateGeomSkip(microRep(10), 5.0); err == nil {
		t.Fatal("report without faultdraw rows passed the speedup gate")
	}
	onlyV1 := microRep(10, benchreport.Microbench{Name: geomSkipV1Row, NsPerRound: 60000})
	if _, err := gateGeomSkip(onlyV1, 5.0); err == nil {
		t.Fatal("report without the v2 row passed the speedup gate")
	}
}

func TestGateGeomSkipRejectsNonPositive(t *testing.T) {
	if _, err := gateGeomSkip(geomSkipRep(60000, 0), 5.0); err == nil {
		t.Fatal("non-positive v2 ns accepted")
	}
}

func burstDrawRep(v2Ns, v3Ns float64) benchreport.Report {
	return microRep(10,
		benchreport.Microbench{Name: burstDrawV2Row, NsPerRound: v2Ns},
		benchreport.Microbench{Name: burstDrawV3Row, NsPerRound: v3Ns},
	)
}

func TestGateBurstDrawWithinCeiling(t *testing.T) {
	if _, err := gateBurstDraw(burstDrawRep(9000, 15000), 2.0); err != nil {
		t.Fatalf("1.7x ratio rejected at 2x ceiling: %v", err)
	}
}

func TestGateBurstDrawOverCeiling(t *testing.T) {
	_, err := gateBurstDraw(burstDrawRep(9000, 27000), 2.0)
	if err == nil {
		t.Fatal("3x ratio accepted at 2x ceiling")
	}
	if !strings.Contains(err.Error(), "ceiling") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestGateBurstDrawMissingRows(t *testing.T) {
	if _, err := gateBurstDraw(microRep(10), 2.0); err == nil {
		t.Fatal("report without faultdraw rows passed the burstdraw gate")
	}
	onlyV2 := microRep(10, benchreport.Microbench{Name: burstDrawV2Row, NsPerRound: 9000})
	if _, err := gateBurstDraw(onlyV2, 2.0); err == nil {
		t.Fatal("report without the v3 row passed the burstdraw gate")
	}
}

func TestGateBurstDrawRejectsNonPositive(t *testing.T) {
	if _, err := gateBurstDraw(burstDrawRep(0, 15000), 2.0); err == nil {
		t.Fatal("non-positive v2 ns accepted")
	}
}

func cacheHitRep(coldNs, hitNs float64) benchreport.Report {
	return microRep(10,
		benchreport.Microbench{Name: cacheColdRow, NsPerRound: coldNs},
		benchreport.Microbench{Name: cacheHitRow, NsPerRound: hitNs},
	)
}

func TestGateCacheHitAboveFloor(t *testing.T) {
	if _, err := gateCacheHit(cacheHitRep(300e6, 1e6), 100.0); err != nil {
		t.Fatalf("300x speedup rejected at 100x floor: %v", err)
	}
}

func TestGateCacheHitBelowFloor(t *testing.T) {
	_, err := gateCacheHit(cacheHitRep(300e6, 10e6), 100.0)
	if err == nil {
		t.Fatal("30x speedup accepted at 100x floor")
	}
	if !strings.Contains(err.Error(), "floor") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestGateCacheHitMissingRows(t *testing.T) {
	if _, err := gateCacheHit(microRep(10), 100.0); err == nil {
		t.Fatal("report without servecache rows passed the cachehit gate")
	}
	onlyCold := microRep(10, benchreport.Microbench{Name: cacheColdRow, NsPerRound: 300e6})
	if _, err := gateCacheHit(onlyCold, 100.0); err == nil {
		t.Fatal("report without the hit row passed the cachehit gate")
	}
}

func TestGateCacheHitRejectsNonPositive(t *testing.T) {
	if _, err := gateCacheHit(cacheHitRep(300e6, 0), 100.0); err == nil {
		t.Fatal("non-positive hit ns accepted")
	}
}
