package radio

import (
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

func TestEngineString(t *testing.T) {
	if Auto.String() != "auto" || Sparse.String() != "sparse" || Dense.String() != "dense" || Implicit.String() != "implicit" {
		t.Fatal("Engine String names wrong")
	}
	if Engine(99).String() == "" {
		t.Fatal("unknown engine should still stringify")
	}
}

func TestParseEngine(t *testing.T) {
	for _, tt := range []struct {
		in      string
		want    Engine
		wantErr bool
	}{
		{in: "auto", want: Auto},
		{in: "", want: Auto},
		{in: "sparse", want: Sparse},
		{in: "dense", want: Dense},
		{in: "implicit", want: Implicit},
		{in: "turbo", wantErr: true},
	} {
		got, err := ParseEngine(tt.in)
		if (err != nil) != tt.wantErr {
			t.Fatalf("ParseEngine(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
		if err == nil && got != tt.want {
			t.Fatalf("ParseEngine(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestValidateRejectsUnknownEngine(t *testing.T) {
	cfg := Config{Fault: Faultless, Engine: Engine(7)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestAutoEngineSelection: Auto runs a graph with a model implicitly and
// every other graph sparse, however dense its CSR.
func TestAutoEngineSelection(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		want Engine
	}{
		{name: "path runs sparse", g: graph.Path(1024).G, want: Sparse},
		{name: "small complete goes implicit", g: graph.Complete(32).G, want: Implicit},
		{name: "large complete goes implicit", g: graph.Complete(128).G, want: Implicit},
		{name: "dense gnp runs sparse", g: graph.GNP(256, 0.5, rng.New(1)).G, want: Sparse},
		{name: "complete csr runs sparse", g: builderComplete(256).G, want: Sparse},
		{name: "sparse gnp runs sparse", g: graph.GNP(256, 0.01, rng.New(1)).G, want: Sparse},
		{name: "star runs sparse", g: graph.Star(512).G, want: Sparse},
	} {
		net := MustNew[int32](tt.g, Config{Fault: Faultless}, rng.New(1))
		if net.Engine() != tt.want {
			t.Fatalf("%s: Auto resolved to %v, want %v", tt.name, net.Engine(), tt.want)
		}
	}
}

func TestEngineOverride(t *testing.T) {
	g := graph.Path(16).G
	dense := MustNew[int32](g, Config{Fault: Faultless, Engine: Dense}, rng.New(1))
	if dense.Engine() != Dense {
		t.Fatalf("explicit Dense resolved to %v", dense.Engine())
	}
	sparse := MustNew[int32](builderComplete(256).G, Config{Fault: Faultless, Engine: Sparse}, rng.New(1))
	if sparse.Engine() != Sparse {
		t.Fatalf("explicit Sparse resolved to %v", sparse.Engine())
	}
}

// The dense engine must satisfy the same model definition as the sparse
// one on a fixed example.
func TestDenseEngineModelSemantics(t *testing.T) {
	top := builderComplete(5)
	net := MustNew[int32](top.G, Config{Fault: Faultless, Engine: Dense}, rng.New(1))
	if net.Engine() != Dense {
		t.Fatalf("engine resolved to %v, want dense", net.Engine())
	}
	tx := bitset.New(5)
	tx.Set(0)
	payload := []int32{11, 0, 0, 0, 0}
	got := map[int]Delivery[int32]{}
	net.StepSet(tx, payload, nil, func(d Delivery[int32]) { got[d.To] = d })
	if len(got) != 4 {
		t.Fatalf("deliveries = %d, want 4", len(got))
	}
	for v := 1; v < 5; v++ {
		if d := got[v]; d.From != 0 || d.Payload != 11 {
			t.Fatalf("node %d delivery %+v", v, d)
		}
	}
	// Two broadcasters: everybody else collides.
	tx.Set(1)
	net.StepSet(tx, payload, nil, nil)
	if c := net.Stats().Collisions; c != 3 {
		t.Fatalf("Collisions = %d, want 3", c)
	}
}

func TestResolveEngine(t *testing.T) {
	sparseG := graph.Path(256).G                // avg degree ~2, no model: Auto picks Sparse
	denseG := graph.GNP(256, 0.5, rng.New(3)).G // avg degree ~n/2, no model: Auto picks Sparse too
	cases := []struct {
		cfg  Config
		g    *graph.Graph
		want Engine
	}{
		{Config{Engine: Auto}, sparseG, Sparse},
		{Config{Engine: Auto}, denseG, Sparse},
		{Config{Engine: Sparse}, denseG, Sparse},
		{Config{Engine: Dense}, sparseG, Dense},
		{Config{Engine: Dense}, denseG, Dense},
	}
	for _, c := range cases {
		if got := c.cfg.ResolveEngine(c.g); got != c.want {
			t.Errorf("ResolveEngine(engine=%v, n=%d) = %v, want %v", c.cfg.Engine, c.g.N(), got, c.want)
		}
	}
	// ResolveEngine must agree with the engine New actually builds.
	for _, c := range cases {
		cfg := c.cfg
		cfg.Fault = Faultless
		if net := MustNew[struct{}](c.g, cfg, nil); net.Engine() != cfg.ResolveEngine(c.g) {
			t.Errorf("ResolveEngine(engine=%v) disagrees with New on n=%d", cfg.Engine, c.g.N())
		}
	}
}
