// Package radio is the ill-formed draw-contract twin: a version with no
// descriptor row, rows missing their name or golden, an unregistered
// golden file, and a Validate that never consults the table.
package radio

import "errors"

type DrawContract int

const (
	DrawV1 DrawContract = iota
	DrawV2              // want "has no contractSpecs row"
	DrawV3
	DrawV4
)

type contractSpec struct {
	name   string
	golden string
}

var contractSpecs = []contractSpec{
	DrawV1: {golden: "v1.golden"},                  // want "has no name"
	DrawV3: {name: "v3"},                           // want "has no golden file"
	DrawV4: {name: "v4", golden: "missing.golden"}, // want "is not committed"
}

type Config struct {
	Draw DrawContract
}

func (c Config) Validate() error { // want "does not consult contractSpecs"
	if c.Draw < DrawV1 || c.Draw > DrawV4 {
		return errors.New("radio: bad contract")
	}
	return nil
}
