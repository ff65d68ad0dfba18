package radio

import (
	"testing"

	"noisyradio/internal/rng"
)

// FuzzDrawContract fuzzes the draw contract itself, below the engines:
// for an arbitrary sequence of rounds over arbitrary site sets and an
// arbitrary p, the optimized marking path (the bulk walks the
// dense/implicit engines run when untraced, or the per-site loop where
// the contract requires one) must produce exactly the fault membership
// that a per-site recomputation of the same contract yields on an
// identically-seeded stream — same fault sets, same stats, same stream
// position after every round. Each round is also decided word by word
// through drawState.mask, as the engines decide a word of listeners,
// against the per-site walk with a stream witness after every word
// (checkMaskMatchesPerSite). All four contract versions run through the
// same harnesses (modelRaw selects the contract and its parameter
// variant). Seed corpus lives in testdata/fuzz/FuzzDrawContract.
func FuzzDrawContract(f *testing.F) {
	f.Add(uint64(1), uint64(64), uint64(1), uint64(500), []byte{0xff, 0x0f, 0xaa})
	f.Add(uint64(2), uint64(200), uint64(1), uint64(1), []byte{0x01, 0x80})
	f.Add(uint64(3), uint64(40), uint64(0), uint64(300), []byte{0x5a})
	f.Add(uint64(4), uint64(130), uint64(1), uint64(999), []byte{})
	f.Add(uint64(5), uint64(90), uint64(2), uint64(120), []byte{0x3c, 0xc3})
	f.Add(uint64(6), uint64(150), uint64(6), uint64(640), []byte{0x77})
	f.Add(uint64(7), uint64(64), uint64(3), uint64(250), []byte{0x0f, 0xf0, 0x55})
	f.Add(uint64(8), uint64(300), uint64(7), uint64(80), []byte{0xaa, 0xaa})
	// v4 ball jams over four words: from round 1 on, each round's first
	// site lies past its first word.
	f.Add(uint64(9), uint64(250), uint64(7), uint64(30), []byte{0x00, 0x11, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, seed, nRaw, modelRaw, pRaw uint64, siteBytes []byte) {
		n := int(nRaw%300) + 2
		dc := DrawContract(modelRaw % 4)
		p := float64(pRaw%1000) / 1000 // [0, 0.999]: includes the p=0 degenerate case
		cfg := Config{Fault: SenderFaults, P: p, Draw: dc}
		variant := modelRaw / 4
		switch dc {
		case DrawV3:
			// Keep the marginal reachable (P < BadP and g2b <= 1, even at
			// Len=1, BadP=0.5 where the bound is P <= 0.25): scale p into
			// [0, 0.24) and vary the burst shape from the spare bits.
			cfg.P = p * 0.24
			lens := []float64{1, 2, 8, 33}
			cfg.Burst = BurstParams{Len: lens[variant%4], BadP: 0.5 + float64(variant%5)/10}
		case DrawV4:
			cfg.Jam = JamParams{
				Q:      0.05 + float64(variant%7)/8,
				Radius: 1 + int(variant%9)*4,
				Ball:   variant%2 == 1,
			}
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzz-built config invalid: %v", err) // derivations above must keep cfg valid
		}
		rounds := len(siteBytes)
		if rounds < 1 {
			rounds = 1
		}
		if rounds > 20 {
			rounds = 20
		}
		pick := func(r *rng.Stream, v int) bool {
			if len(siteBytes) == 0 {
				return v%3 != 0
			}
			// Site membership from the fuzz bytes, stretched over rounds by
			// the per-round stream below mixing in randomness.
			idx := v % (len(siteBytes) * 8)
			if siteBytes[idx/8]>>(idx%8)&1 == 1 {
				return true
			}
			return r.Bool(0.25)
		}
		checkBulkMatchesPerSite(t, cfg, n, seed, rounds, pick)
		checkMaskMatchesPerSite(t, cfg, n, seed, rounds, pick)
	})
}
