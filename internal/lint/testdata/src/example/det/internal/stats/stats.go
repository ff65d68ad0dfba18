// Package stats is a deterministic-plane twin (import-path suffix
// internal/stats) exercising the determinism analyzer's firing and
// non-firing cases.
package stats

import (
	_ "math/rand" // want "deterministic plane imports math/rand"
	"time"
)

func Mean(m map[string]float64) float64 {
	var sum float64
	n := 0
	for _, v := range m { // want "map range iteration in a deterministic plane"
		sum += v // want "floating-point reduction folded in map-range order"
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now in a deterministic plane"
}

func Elapsed(since time.Time) time.Duration {
	return time.Since(since) // want "time.Since in a deterministic plane"
}

func StampAllowed() int64 {
	return time.Now().UnixNano() //lint:deterministic-ok profiling hook; never reaches simulation output
}

// SortedFold shows the annotated map-range idiom: collection order is
// irrelevant because the fold runs over the caller's sorted keys.
func SortedFold(m map[string]float64, keys []string) float64 {
	seen := 0
	//lint:deterministic-ok key-set size only; order-independent
	for range m {
		seen++
	}
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	_ = seen
	return sum
}

func Spawn(f func()) {
	go f() // want "goroutine spawned outside the sim dispatcher"
}

// SliceFold must not fire: ranging a slice is ordered.
func SliceFold(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}
