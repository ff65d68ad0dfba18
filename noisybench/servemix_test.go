package main

import (
	"fmt"
	"reflect"
	"testing"
)

func TestScriptDeterministicPerSeed(t *testing.T) {
	a, b := newScript(7, 2), newScript(7, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two scripts for seed 7 differ")
	}
	c := newScript(8, 2)
	if reflect.DeepEqual(a.specs, c.specs) || reflect.DeepEqual(a.clients, c.clients) {
		t.Fatal("seeds 7 and 8 give the same specs or job order")
	}
}

func TestScriptMissHitMix(t *testing.T) {
	shapes := len(mixSchedules) * len(mixTopologies) * len(mixTrials)
	for _, clients := range []int{1, 2, 3} {
		s := newScript(3, clients)
		if want := clients * shapes; len(s.specs) != want {
			t.Fatalf("%d clients: %d specs, want %d", clients, len(s.specs), want)
		}
		owner := func(i int) int { return i / shapes }
		// Walk the global order: job j of client c is step j·clients + c.
		issued := map[int]int{} // spec → step of its first job
		submitted := map[int][]int{}
		early, crossClient := 0, 0
		for j := range shapes * submissions {
			for c := range clients {
				if len(s.clients[c]) != shapes*submissions {
					t.Fatalf("%d clients: client %d has %d jobs, want %d", clients, c, len(s.clients[c]), shapes*submissions)
				}
				i := s.clients[c][j]
				submitted[i] = append(submitted[i], c)
				if _, ok := issued[i]; !ok {
					issued[i] = j*clients + c
					if c != owner(i) {
						early++
					}
				}
				if c != owner(i) {
					crossClient++
				}
			}
		}
		// Each spec: once by its owner, once by each of the next two clients.
		for i := range s.specs {
			got := map[int]int{}
			for _, c := range submitted[i] {
				got[c]++
			}
			want := map[int]int{}
			for k := range submissions {
				want[(owner(i)+k)%clients]++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d clients: spec %d submitted by %v, want %v", clients, i, got, want)
			}
		}
		if clients > 1 && crossClient == 0 {
			t.Errorf("%d clients: no client repeats another's spec", clients)
		}
		if early*20 > len(s.specs) {
			t.Errorf("%d clients: %d of %d specs are first submitted by a repeat", clients, early, len(s.specs))
		}
		// Each client owns every shape once, with each p once per
		// schedule-topology pair and the noise models in equal numbers.
		if first := s.clients[0][0]; owner(first) != 0 {
			t.Errorf("%d clients: the first job repeats spec %d", clients, first)
		}
		for c := range clients {
			seen, ps, faults := map[string]int{}, map[string]int{}, map[string]int{}
			for _, spec := range s.specs[c*shapes : (c+1)*shapes] {
				seen[fmt.Sprintf("%s/%s/%d/%d", spec.Schedule, spec.Topology, spec.N, spec.Trials)]++
				ps[fmt.Sprintf("%s/%s/%d/%v", spec.Schedule, spec.Topology, spec.N, spec.P)]++
				faults[spec.Fault]++
			}
			for _, sched := range mixSchedules {
				for _, top := range mixTopologies {
					want := 1
					if top.name == "path" {
						want = 2
					}
					for _, trials := range mixTrials {
						if got := seen[fmt.Sprintf("%s/%s/%d/%d", sched, top.name, top.n, trials)]; got != want {
							t.Errorf("%d clients: client %d owns %d specs of %s/%s/%d/%d, want %d", clients, c, got, sched, top.name, top.n, trials, want)
						}
					}
					for _, p := range mixP {
						if got := ps[fmt.Sprintf("%s/%s/%d/%v", sched, top.name, top.n, p)]; got != want {
							t.Errorf("%d clients: client %d owns %d specs of %s/%s/%d at p=%v, want %d", clients, c, got, sched, top.name, top.n, p, want)
						}
					}
				}
			}
			for _, f := range mixFaults {
				if faults[f] != shapes/len(mixFaults) {
					t.Errorf("%d clients: client %d owns %d %s-fault specs, want %d", clients, c, faults[f], f, shapes/len(mixFaults))
				}
			}
		}
	}
}
