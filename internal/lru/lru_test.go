package lru

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// decode lists the ways of order o from the LRU to the MRU end.
func decode(o uint64, ways int) []int {
	out := make([]int, ways)
	for i := range out {
		out[i] = int(o >> (4 * i) & 0xf)
	}
	return out
}

// TestOrderMatchesList holds Promote, Rotate and Victim to a plain list of
// ways over random operation sequences at every associativity.
func TestOrderMatchesList(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for ways := 1; ways <= MaxWays; ways++ {
		o, mru := Init(ways), MRUShift(ways)
		list := make([]int, ways)
		for i := range list {
			list[i] = i
		}
		for step := 0; step < 2000; step++ {
			if Victim(o) != list[0] {
				t.Fatalf("ways=%d step %d: victim %d, list %v", ways, step, Victim(o), list)
			}
			if rng.IntN(2) == 0 {
				w := rng.IntN(ways)
				o = Promote(o, w, mru)
				list = append(slices.DeleteFunc(list, func(x int) bool { return x == w }), w)
			} else {
				o = Rotate(o, mru)
				list = append(list[1:], list[0])
			}
			if got := decode(o, ways); !slices.Equal(got, list) {
				t.Fatalf("ways=%d step %d: order %v, list %v", ways, step, got, list)
			}
			if ways < MaxWays && o>>(4*ways) != 0 {
				t.Fatalf("ways=%d step %d: bits above the MRU nibble: %#x", ways, step, o)
			}
		}
	}
}
