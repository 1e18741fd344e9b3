// Package lru keeps the exact LRU order of one set of a set-associative
// structure in a single word. The order lists the set's ways as 4-bit way
// numbers from the LRU (nibble 0) to the MRU (nibble ways-1), so the victim
// is read rather than searched for and a promotion is a few word
// operations. The cache model and every prefetcher table share it.
package lru

import "math/bits"

// MaxWays bounds associativity: one 4-bit way number per way in a uint64.
const MaxWays = 16

// Nibble masks for the SWAR search over an order word.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// Init returns the initial order of a ways-way set: way 0 at the LRU end
// through way ways-1 at the MRU end.
func Init(ways int) uint64 {
	var o uint64
	for w := 0; w < ways; w++ {
		o |= uint64(w) << (4 * w)
	}
	return o
}

// MRUShift returns the bit offset of the MRU nibble of a ways-way order.
func MRUShift(ways int) uint { return uint(4 * (ways - 1)) }

// Victim returns the LRU way of order o.
func Victim(o uint64) int { return int(o & 0xf) }

// Promote moves way w of order o to the MRU end, whose nibble sits at bit
// mru. A SWAR zero-nibble test finds w's position: XOR with w in every
// nibble zeroes exactly that nibble, and the lowest nibble the borrow
// trick flags is the lowest zero one (a borrow can only produce false
// flags above a true zero). The nibbles above it slide down one place and
// w lands at the MRU.
func Promote(o uint64, w int, mru uint) uint64 {
	x := o ^ uint64(w)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh)) &^ 3
	return o&(1<<p-1) | o>>(p+4)<<p | uint64(w)<<mru
}

// Rotate moves the LRU way of order o to the MRU end: the step a set
// takes when it refills its victim.
func Rotate(o uint64, mru uint) uint64 { return o>>4 | (o&0xf)<<mru }
