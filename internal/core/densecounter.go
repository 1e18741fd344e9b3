package core

// denseCounter is the 3-bit Dense Counter with the paper's asymmetric
// update rule: slow increment on dense footprints, slow decrement when
// weakly confident, fast halving when strongly confident but wrong
// (Fig 3a, lower part).
type denseCounter struct {
	v   int
	max int
}

func newDenseCounter() *denseCounter { return &denseCounter{max: 7} }

// increment applies the slow +1 (saturating).
func (dc *denseCounter) increment() {
	if dc.v < dc.max {
		dc.v++
	}
}

// decrement applies the confidence-scaled decrement: DC>2 halves, else -1.
func (dc *denseCounter) decrement() {
	if dc.v > 2 {
		dc.v /= 2
	} else if dc.v > 0 {
		dc.v--
	}
}

// full reports saturation (highest streaming confidence).
func (dc *denseCounter) full() bool { return dc.v == dc.max }

// halfConfident reports DC > 2 (moderate streaming confidence).
func (dc *denseCounter) halfConfident() bool { return dc.v > 2 }
