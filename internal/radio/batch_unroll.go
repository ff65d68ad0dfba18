package radio

import (
	"math/bits"

	"noisyradio/internal/bitset"
)

// This file holds the lockstep kernel's listener sweep, denseListeners16,
// with its lane loop unrolled: every lane's AND/test chain uses constant
// indices, so the sixteen independent chains schedule in parallel. The
// parity tests (TestBatchMatchesScalarAcrossTopologies and FuzzStepBatch,
// over stream counts 1..16) pin it to the scalar dense engine draw for
// draw.

// byteSpread8 distributes bits 0..7 of an 8-lane mask into the bytes of a
// packed per-lane counter word, REVERSED: mask bit l lands in byte 7-l.
// (The multiply places bit l of the mask at position 9·(7-l)+l; after the
// shift and byte mask exactly that survivor remains per lane, and distinct
// lanes never carry into each other.) Adding the spread word into an
// accumulator counts eight lanes in one instruction sequence instead of a
// mask walk — the batched engine's collision tally.
func byteSpread8(mask uint64) uint64 {
	return (mask * 0x8040201008040201 >> 7) & 0x0101010101010101
}

// flushCollisions16 folds the two packed byteSpread8 accumulators of the
// listener sweep into the lane statistics (lo byte 7-l counts lane l, hi
// byte 7-l counts lane l+8) and resets them. Only the Width lanes that
// carry trials have statistics; the bytes of the others are zero, because
// the sweep counts live lanes only.
func (b *BatchNetwork[P]) flushCollisions16(lo, hi *uint64) {
	for l := range b.stats {
		acc := *lo
		if l >= 8 {
			acc = *hi
		}
		b.stats[l].Collisions += int64(acc >> (8 * (7 - uint(l&7))) & 0xff)
	}
	*lo, *hi = 0, 0
}

// denseListeners16 resolves one round's listeners for every live lane,
// with the collision tally split over two packed byte accumulators (lanes
// 0-7 and 8-15). Receptions resolve in ascending receiver id and, within
// one receiver, ascending lane (lane draws are independent, so only the
// deliver callback can observe that order).
func (b *BatchNetwork[P]) denseListeners16(tx *bitset.Block, payloads [][]P, rx *bitset.Block, live uint64, unionLo, unionHi int, deliver func(lane int, d Delivery[P])) {
	words := tx.Words()
	anyTx := b.anyTx
	nn := b.g.N()
	adj, stride := b.adjWords, b.adjStride
	rowLo, rowHi := b.rowLo, b.rowHi
	hit, hitBase := b.hit, b.hitBase
	var collLo, collHi uint64
	collTicks := 0
	for u, base := 0, 0; u < nn; u, base = u+1, base+stride {
		// Clamp the union tx window to the row window; an all-zero row has
		// lo > hi, which clamps to an empty overlap.
		lo, hi := unionLo, unionHi
		if rl := int(rowLo[u]); rl > lo {
			lo = rl
		}
		if rh := int(rowHi[u]); rh < hi {
			hi = rh
		}
		if lo >= hi {
			continue
		}
		// Live lanes in which u listens (transmitting nodes do not
		// listen). When no lane at all broadcasts from u's node word —
		// the typical case under windowed schedules — the per-lane test
		// is skipped wholesale via the anyTx OR.
		listen := live
		bitU := uint(u) & 63
		if anyTx[u>>6]>>bitU&1 != 0 {
			col := (*[16]uint64)(words[(u>>6)*16 : (u>>6)*16+16])
			txm := col[0]>>bitU&1 |
				col[1]>>bitU&1<<1 |
				col[2]>>bitU&1<<2 |
				col[3]>>bitU&1<<3 |
				col[4]>>bitU&1<<4 |
				col[5]>>bitU&1<<5 |
				col[6]>>bitU&1<<6 |
				col[7]>>bitU&1<<7 |
				col[8]>>bitU&1<<8 |
				col[9]>>bitU&1<<9 |
				col[10]>>bitU&1<<10 |
				col[11]>>bitU&1<<11 |
				col[12]>>bitU&1<<12 |
				col[13]>>bitU&1<<13 |
				col[14]>>bitU&1<<14 |
				col[15]>>bitU&1<<15
			listen = live &^ txm
			if listen == 0 {
				continue
			}
		}
		// Build the two cross-lane outcome masks word by word: nz has a
		// lane once any transmitting neighbour appeared, mult once a
		// second did (two in one word, or hits in two words). A lane in
		// nz but not mult has exactly one transmitting neighbour, and its
		// intersection word — recorded when its single hit was seen — is
		// still current, because any later hit would have moved the lane
		// into mult.
		var nz, mult uint64
		for wi := lo; wi < hi; wi++ {
			a := adj[base+wi]
			if anyTx[wi]&a == 0 {
				continue
			}
			cw := (*[16]uint64)(words[wi*16 : wi*16+16])
			wb := int32(wi * 64)
			var nzw uint64
			if x := a & cw[0]; x != 0 {
				nzw |= 1 << 0
				if x&(x-1) != 0 {
					mult |= 1 << 0
				} else {
					hit[0], hitBase[0] = x, wb
				}
			}
			if x := a & cw[1]; x != 0 {
				nzw |= 1 << 1
				if x&(x-1) != 0 {
					mult |= 1 << 1
				} else {
					hit[1], hitBase[1] = x, wb
				}
			}
			if x := a & cw[2]; x != 0 {
				nzw |= 1 << 2
				if x&(x-1) != 0 {
					mult |= 1 << 2
				} else {
					hit[2], hitBase[2] = x, wb
				}
			}
			if x := a & cw[3]; x != 0 {
				nzw |= 1 << 3
				if x&(x-1) != 0 {
					mult |= 1 << 3
				} else {
					hit[3], hitBase[3] = x, wb
				}
			}
			if x := a & cw[4]; x != 0 {
				nzw |= 1 << 4
				if x&(x-1) != 0 {
					mult |= 1 << 4
				} else {
					hit[4], hitBase[4] = x, wb
				}
			}
			if x := a & cw[5]; x != 0 {
				nzw |= 1 << 5
				if x&(x-1) != 0 {
					mult |= 1 << 5
				} else {
					hit[5], hitBase[5] = x, wb
				}
			}
			if x := a & cw[6]; x != 0 {
				nzw |= 1 << 6
				if x&(x-1) != 0 {
					mult |= 1 << 6
				} else {
					hit[6], hitBase[6] = x, wb
				}
			}
			if x := a & cw[7]; x != 0 {
				nzw |= 1 << 7
				if x&(x-1) != 0 {
					mult |= 1 << 7
				} else {
					hit[7], hitBase[7] = x, wb
				}
			}
			if x := a & cw[8]; x != 0 {
				nzw |= 1 << 8
				if x&(x-1) != 0 {
					mult |= 1 << 8
				} else {
					hit[8], hitBase[8] = x, wb
				}
			}
			if x := a & cw[9]; x != 0 {
				nzw |= 1 << 9
				if x&(x-1) != 0 {
					mult |= 1 << 9
				} else {
					hit[9], hitBase[9] = x, wb
				}
			}
			if x := a & cw[10]; x != 0 {
				nzw |= 1 << 10
				if x&(x-1) != 0 {
					mult |= 1 << 10
				} else {
					hit[10], hitBase[10] = x, wb
				}
			}
			if x := a & cw[11]; x != 0 {
				nzw |= 1 << 11
				if x&(x-1) != 0 {
					mult |= 1 << 11
				} else {
					hit[11], hitBase[11] = x, wb
				}
			}
			if x := a & cw[12]; x != 0 {
				nzw |= 1 << 12
				if x&(x-1) != 0 {
					mult |= 1 << 12
				} else {
					hit[12], hitBase[12] = x, wb
				}
			}
			if x := a & cw[13]; x != 0 {
				nzw |= 1 << 13
				if x&(x-1) != 0 {
					mult |= 1 << 13
				} else {
					hit[13], hitBase[13] = x, wb
				}
			}
			if x := a & cw[14]; x != 0 {
				nzw |= 1 << 14
				if x&(x-1) != 0 {
					mult |= 1 << 14
				} else {
					hit[14], hitBase[14] = x, wb
				}
			}
			if x := a & cw[15]; x != 0 {
				nzw |= 1 << 15
				if x&(x-1) != 0 {
					mult |= 1 << 15
				} else {
					hit[15], hitBase[15] = x, wb
				}
			}
			mult |= nz & nzw
			nz |= nzw
			if listen&^mult == 0 {
				break // every listening lane's collision is certain
			}
		}
		if coll := mult & listen; coll != 0 {
			collLo += byteSpread8(coll & 0xff)
			collHi += byteSpread8(coll >> 8)
			if collTicks++; collTicks == 255 {
				b.flushCollisions16(&collLo, &collHi)
				collTicks = 0
			}
		}
		for m := nz &^ mult & listen; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			b.resolveUnique(l, int32(u), hitBase[l]+int32(bits.TrailingZeros64(hit[l])), payloads, rx, deliver)
		}
	}
	if collLo != 0 || collHi != 0 {
		b.flushCollisions16(&collLo, &collHi)
	}
}
