package radio

import "fmt"

// Execution planning: picking the lockstep trial-batch width for a row of
// Monte-Carlo trials, the way Auto picks an engine for a graph. Output is
// proven identical at every width (differential tests, the experiments
// golden and the CI determinism job), so this is purely a cost decision,
// and there is one lockstep kernel to decide for: MaxBatchWidth lanes on
// the dense engine. On the sparse and implicit engines every trial runs
// scalar.

// PlanBatchWidth picks the lockstep trial-batch width for a row of
// `trials` Monte-Carlo trials on the given resolved engine (pass the
// Config.ResolveEngine result; Auto here means the graph is unknown and
// is treated as dense, the engine batching was built for). It returns
// MaxBatchWidth for two or more trials on the dense engine and 1 (scalar)
// otherwise, with a short human-readable reason for plan reports. A batch
// of fewer than MaxBatchWidth trials runs in the same kernel with the
// spare lanes inactive; single-trial remainders run scalar, as the sweep
// dispatches them.
func PlanBatchWidth(engine Engine, trials int) (int, string) {
	switch {
	case engine == Sparse || engine == Implicit:
		return 1, fmt.Sprintf("scalar: lockstep runs on the dense engine, not %v", engine)
	case trials < 2:
		return 1, "scalar: nothing to batch"
	}
	return MaxBatchWidth, fmt.Sprintf("w=%d: the dense engine's lockstep kernel", MaxBatchWidth)
}
