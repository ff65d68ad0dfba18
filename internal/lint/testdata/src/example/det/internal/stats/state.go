package stats

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Package-level variables holding a map, a sync value or a sync/atomic
// value fire, directly or nested in pointers, slices, arrays and struct
// fields.

var cache = map[string]int{} // want "package-level variable cache holds a map"

var mu sync.Mutex // want "package-level variable mu holds sync.Mutex"

var hits atomic.Int64 // want "package-level variable hits holds atomic.Int64"

var memo *sync.Map // want "package-level variable memo holds sync.Map"

type entry struct {
	seen map[int]bool
}

type freelist struct {
	free []*entry
}

var pools [2]freelist // want "package-level variable pools holds a map"

var (
	guard sync.Once // want "package-level variable guard holds sync.Once"
	//lint:deterministic-ok process-cumulative counter that no trial reads
	served atomic.Int64
)

// Immutable tables, error values and recursive types that hold none of
// these stay silent, as do annotated and blank variables.

var table = [3]float64{1, 2, 3}

var names = []string{"a", "b"}

var errBad = errors.New("stats: bad")

type node struct {
	next *node
	v    int
}

var head *node

var counted atomic.Int64 //lint:deterministic-ok process-cumulative counter that no trial reads

var _ = map[string]int{}
