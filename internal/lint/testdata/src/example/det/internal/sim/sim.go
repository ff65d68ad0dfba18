// Package sim is a deterministic-plane twin exercising the dispatcher
// allowlist: RunContext may spawn goroutines, nothing else may.
package sim

func RunContext(work []func()) {
	done := make(chan struct{})
	for _, w := range work {
		go func(f func()) { f(); done <- struct{}{} }(w)
	}
	for range work {
		<-done
	}
}

func Run(work []func()) {
	for _, w := range work {
		go w() // want "goroutine spawned outside the sim dispatcher"
	}
}

func Helper(f func()) {
	go f() // want "goroutine spawned outside the sim dispatcher"
}
