// Package radio is a well-formed draw-contract twin: full descriptor
// table, committed goldens, Validate wired to the table — plus switch
// statements covering the exhaustiveness rule's firing and non-firing
// shapes.
package radio

import "fmt"

type DrawContract int

const (
	DrawV1 DrawContract = iota
	DrawV2
)

func (c DrawContract) String() string { return fmt.Sprintf("v%d", int(c)+1) }

type contractSpec struct {
	name   string
	golden string
}

var contractSpecs = []contractSpec{
	DrawV1: {name: "v1", golden: "v1.golden"},
	DrawV2: {name: "v2", golden: "v2.golden"},
}

type Config struct {
	Draw DrawContract
}

func (c Config) Validate() error {
	if int(c.Draw) < 0 || int(c.Draw) >= len(contractSpecs) {
		return fmt.Errorf("radio: unknown draw contract %v", c.Draw)
	}
	return nil
}

func exhaustive(c Config) int {
	switch c.Draw {
	case DrawV1:
		return 1
	case DrawV2:
		return 2
	}
	return 0
}

func nonExhaustive(c Config) int {
	switch c.Draw { // want "does not cover DrawV2 and has no default arm"
	case DrawV1:
		return 1
	}
	return 0
}

func defaultNamesContract(c Config) int {
	switch c.Draw {
	case DrawV1:
		return 1
	default:
		panic(fmt.Sprintf("radio: unknown draw contract %v", c.Draw))
	}
}

func defaultSilent(c Config) int {
	switch c.Draw {
	case DrawV1:
		return 1
	default: // want "does not name the contract"
		return -1
	}
}

func annotatedNonExhaustive(c Config) int {
	switch c.Draw { //lint:drawcontract-ok v2 handled by the caller's fallback
	case DrawV1:
		return 1
	}
	return 0
}

// notTheContract must not fire: the tag is a plain int.
func notTheContract(x int) int {
	switch x {
	case 0:
		return 1
	}
	return 0
}

var _ = []int{int(DrawV1), int(DrawV2)} // keep both constants referenced
