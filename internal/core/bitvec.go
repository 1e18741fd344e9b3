package core

import "math/bits"

// bitvec is a footprint bit vector over up to 1024 block offsets (64KB
// regions at 64B lines). The default 4KB region needs exactly one word —
// the 64-bit footprint of Table I.
type bitvec struct {
	w []uint64
}

func newBitvec(nbits int) bitvec {
	return bitvec{w: make([]uint64, (nbits+63)/64)}
}

func (b bitvec) set(i int)      { b.w[i>>6] |= 1 << uint(i&63) }
func (b bitvec) get(i int) bool { return b.w[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitvec) popcount() int {
	n := 0
	for _, w := range b.w {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitvec) clone() bitvec {
	c := bitvec{w: make([]uint64, len(b.w))}
	copy(c.w, b.w)
	return c
}

// full reports whether the first nbits bits are all set.
func (b bitvec) full(nbits int) bool { return b.popcount() == nbits }

// forEach calls fn for every set bit below nbits.
func (b bitvec) forEach(nbits int, fn func(i int)) {
	for wi, w := range b.w {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			i := wi*64 + bit
			if i >= nbits {
				return
			}
			fn(i)
			w &^= 1 << uint(bit)
		}
	}
}
