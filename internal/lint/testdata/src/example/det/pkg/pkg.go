// Package pkg is NOT a deterministic plane: the analyzer must stay
// silent here even on patterns it forbids elsewhere.
package pkg

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

var cache = map[string]int{}
