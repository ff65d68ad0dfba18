package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"noisyradio/internal/benchreport"
)

// FuzzJobSpec drives the admission path short of building: the handler's
// spec decoding, checkJob and the plan key. No input may panic, and a
// spec that passes the check must decode from its own JSON re-encoding
// to a spec that passes again under the same plan key, so a client that
// round-trips a spec never moves it to another cache entry.
func FuzzJobSpec(f *testing.F) {
	seeds := []benchreport.JobSpec{
		testSpec(),
		{Schedule: "decay", Topology: "complete", N: 4096, Fault: "sender", P: 0.1, Seed: 1, Trials: 512},
		{Schedule: "star-coding", N: 16, K: 4, Fault: "receiver", P: 0.45, Seed: 3, Trials: 70},
		{Schedule: "pipelined-batch-routing", Topology: "complete", N: 4096, K: 2, Fault: "receiver", P: 0.1, Seed: 1, Trials: 2},
		{Schedule: "decay", Topology: "path", N: 24, Fault: "receiver", P: 0.3, Draw: "v3", BurstLen: 4, BurstBadP: 0.9, Seed: 3, Trials: 40},
		{Schedule: "decay", Topology: "path", N: 24, Fault: "sender", P: 0.3, Draw: "v4", JamQ: 0.2, JamRadius: 2, JamBall: true, Seed: 3, Trials: 40},
	}
	for _, mut := range badSpecs {
		spec := testSpec()
		mut(&spec)
		seeds = append(seeds, spec)
	}
	for _, spec := range seeds {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(unknownFieldSpec))
	f.Add([]byte(`{"schedule":"decay","trials":1e3}`))

	s := NewServer(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		jb, err := s.checkJob(spec)
		if err != nil {
			return
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		again, err := decodeSpec(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("accepted spec's encoding %s does not decode: %v", b, err)
		}
		jb2, err := s.checkJob(again)
		if err != nil {
			t.Fatalf("accepted spec's round trip %s is rejected: %v", b, err)
		}
		if jb2.key != jb.key {
			t.Fatalf("plan key %s moved to %s across a JSON round trip of %s", jb.key, jb2.key, b)
		}
	})
}
