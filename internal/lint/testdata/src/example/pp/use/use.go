// Package use exercises the poolpair analyzer: paired, unpaired,
// leaking-return, deferred, escaping and width-crossing checkouts.
package use

import "example/pp/internal/radio"

var pool radio.Pool

func unpaired(seed int) int {
	n, err := pool.Get(seed) // want "never returned with Put"
	if err != nil {
		return 0
	}
	_ = n
	return 1
}

func paired(seed int) {
	n, err := pool.Get(seed)
	if err != nil {
		return
	}
	pool.Put(n)
}

func leakyReturn(seed int, bail bool) error {
	n, err := pool.Get(seed)
	if err != nil {
		return err // the Get's own failure guard: nothing checked out
	}
	if bail {
		return nil // want "leaks the checkout on this path"
	}
	pool.Put(n)
	return nil
}

func putBeforeEachReturn(seed int, bail bool) error {
	n, err := pool.Get(seed)
	if err != nil {
		return err
	}
	if bail {
		pool.Put(n)
		return nil
	}
	pool.Put(n)
	return nil
}

func deferred(seed int, bail bool) error {
	n, err := pool.Get(seed)
	if err != nil {
		return err
	}
	defer pool.Put(n)
	if bail {
		return nil
	}
	return nil
}

type holder struct {
	n *radio.Network
}

// escapes transfers ownership into the returned holder; its consumer
// puts the network back (the newSingleRunner idiom).
func escapes(seed int) *holder {
	n, err := pool.Get(seed)
	if err != nil {
		return nil
	}
	return &holder{n: n}
}

func (h *holder) release() {
	pool.Put(h.n)
}

func crossKind(seeds []int) {
	b, err := pool.GetBatch(seeds) // want "never returned with PutBatch"
	if err != nil {
		return
	}
	pool.Put(b) // want "must never cross kinds"
}

func batchPaired(seeds []int) {
	b, err := pool.GetBatch(seeds)
	if err != nil {
		return
	}
	pool.PutBatch(b)
}

func annotated(seed int) int {
	n, err := pool.Get(seed) //lint:poolpair-ok retained for the process lifetime by design
	if err != nil {
		return 0
	}
	_ = n
	return 1
}
