package noisyradio

// One benchmark per reproduced table/figure, named after the experiment ids
// of DESIGN.md. Each regenerates its experiment (quick sweep) per
// iteration; `go test -bench=E9 -v` prints the table itself via -v runs of
// the corresponding tests in internal/experiments.
//
// Additional micro-benchmarks cover the hot substrates (radio rounds, RLNC
// decoding, GBST construction) — see the per-package *_test.go files.

import (
	"testing"

	"noisyradio/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(experiments.Config{Quick: true, Seed: 1})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkE1DecayFaultless(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2FASTBCFaultless(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3DecayNoisy(b *testing.B)              { benchExperiment(b, "E3") }
func BenchmarkE4FASTBCNoisy(b *testing.B)             { benchExperiment(b, "E4") }
func BenchmarkE5RobustFASTBC(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE6RLNCThroughput(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7StarRouting(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE8StarCoding(b *testing.B)              { benchExperiment(b, "E8") }
func BenchmarkE9StarGap(b *testing.B)                 { benchExperiment(b, "E9") }
func BenchmarkE10WCTCollisionFree(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11WCTRouting(b *testing.B)             { benchExperiment(b, "E11") }
func BenchmarkE12WCTCoding(b *testing.B)              { benchExperiment(b, "E12") }
func BenchmarkE13WorstCaseGap(b *testing.B)           { benchExperiment(b, "E13") }
func BenchmarkE14SenderTransformRouting(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15SenderTransformCoding(b *testing.B)  { benchExperiment(b, "E15") }
func BenchmarkE16SingleLinkNonAdaptive(b *testing.B)  { benchExperiment(b, "E16") }
func BenchmarkE17SingleLinkAdaptive(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18SingleLinkGap(b *testing.B)          { benchExperiment(b, "E18") }
func BenchmarkE19PipelinedBatchRouting(b *testing.B)  { benchExperiment(b, "E19") }
func BenchmarkF1GBSTBuild(b *testing.B)               { benchExperiment(b, "F1") }
func BenchmarkF2WCTBuild(b *testing.B)                { benchExperiment(b, "F2") }
func BenchmarkA1BlockSizeAblation(b *testing.B)       { benchExperiment(b, "A1") }
func BenchmarkA2RepetitionAblation(b *testing.B)      { benchExperiment(b, "A2") }
func BenchmarkA3UnknownNDecay(b *testing.B)           { benchExperiment(b, "A3") }

// BenchmarkSingleBroadcastAlgorithms compares the four single-message
// algorithms head-to-head on a noisy grid — the library's headline hot
// path. Each runs twice: run calls Run per trial, which plans the
// schedule (round cap, GBST, skip samplers) every time; row runs its
// trials through one binding, as a sweep row does, so the plan is built
// once and the per-trial cost is the broadcast alone.
func BenchmarkSingleBroadcastAlgorithms(b *testing.B) {
	top := Grid(24, 24)
	cfg := Config{Fault: ReceiverFaults, P: 0.3}
	for _, name := range []string{"decay", "decay-unknown-n", "fastbc", "robust-fastbc"} {
		sched := MustSchedule(name)
		b.Run(name+"/run", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(sched, top, cfg, NewRand(uint64(i)), ScheduleParams{})
				if err != nil || !res.Success {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
		b.Run(name+"/row", func(b *testing.B) {
			run := sched.Bind(top, cfg, ScheduleParams{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := run(NewRand(uint64(i)))
				if err != nil || !res.Success {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

// BenchmarkSingleBroadcastEngines runs Decay on a dense random graph under
// each execution engine: outputs are bit-identical, so the ratio is pure
// engine speedup on the library's public entry points. EngineAuto runs
// this graph sparse, as every graph without a model: a broadcaster's word
// row is at most 8 pairs for its ~150 neighbours, which beats the dense
// engine's scan of every listener's bitset row even at this density
// (0.21 against 0.64 ms per trial, one CPU of a 2-vCPU VM).
func BenchmarkSingleBroadcastEngines(b *testing.B) {
	top := GNP(512, 0.3, NewRand(11))
	decay := MustSchedule("decay")
	for _, eng := range []Engine{EngineSparse, EngineDense} {
		b.Run(eng.String(), func(b *testing.B) {
			cfg := Config{Fault: ReceiverFaults, P: 0.3, Engine: eng}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(decay, top, cfg, NewRand(uint64(i)), ScheduleParams{})
				if err != nil || !res.Success {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

// BenchmarkStarCodingEngines measures the Lemma 16 Reed–Solomon star
// schedule under each engine: the hub's row of 1,024 consecutive leaves
// is 17 word-row pairs, while the dense engine scans every leaf's bitset
// row each round.
func BenchmarkStarCodingEngines(b *testing.B) {
	starCoding := MustSchedule("star-coding")
	for _, eng := range []Engine{EngineSparse, EngineDense} {
		b.Run(eng.String(), func(b *testing.B) {
			cfg := Config{Fault: ReceiverFaults, P: 0.5, Engine: eng}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(starCoding, Topology{}, cfg, NewRand(uint64(i)), ScheduleParams{Leaves: 1024, K: 16})
				if err != nil || !res.Success {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

// BenchmarkRLNCGridBroadcast measures the coded multi-message pipeline
// end-to-end, including Gaussian-elimination decoding at every node.
func BenchmarkRLNCGridBroadcast(b *testing.B) {
	top := Grid(5, 5)
	cfg := Config{Fault: SenderFaults, P: 0.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRand(uint64(i))
		msgs := RandomMessages(8, 8, r)
		res, _, err := RLNCBroadcast(top, cfg, msgs, RLNCDecay, r)
		if err != nil || !res.Success {
			b.Fatalf("%v %+v", err, res)
		}
	}
}
