package sim

import "noisyradio/internal/rng"

// variableTrial consumes a trial-dependent, draw-dependent amount of the
// stream — the shape that would expose any accidental stream sharing or
// ordering dependence between workers. Run the sweep tests under -race
// (the CI workflow does): any cross-trial state sharing would both corrupt
// the output comparison and trip the race detector.
func variableTrial(trial int, r *rng.Stream) (float64, error) {
	draws := 1 + r.Intn(500) + trial%7
	var acc uint64
	for i := 0; i < draws; i++ {
		acc = acc*31 + r.Uint64()>>40
	}
	if r.Bool(0.5) {
		acc += uint64(r.Intn(1000))
	}
	return float64(acc % (1 << 52)), nil
}
