package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark itself, around its calls into each
// layer of the program (workload, traceset, engine, sim, server). The
// layer of a span is its name up to the first dot. A span's self time is
// its duration minus the part of it covered by its children, so a layer's
// self time is the time spent in that layer's calls and not in a deeper
// one the benchmark also wrapped.

// span is one recorded interval. Times are nanoseconds since the
// recorder started; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Whether a span is
// recorded is decided at its root: an untraced root (every root of an
// untraced run, and the untraced rounds of a traced one) is nil, and so
// are all of its children, at the cost of a nil check per call.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open is an open span; a nil *open (not traced) is a valid no-op.
type open struct {
	r *recorder
	s span
}

// root opens a root span when traced is set and r is not nil.
func (r *recorder) root(name string, traced bool) *open {
	if r == nil || !traced {
		return nil
	}
	return &open{r: r, s: span{ID: r.nextID.Add(1), Name: name, Start: int64(time.Since(r.t0))}}
}

// child opens a span under o; nil when o is nil.
func (o *open) child(name string) *open {
	if o == nil {
		return nil
	}
	r := o.r
	return &open{r: r, s: span{ID: r.nextID.Add(1), Parent: o.s.ID, Name: name, Start: int64(time.Since(r.t0))}}
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// layerSelf returns each layer's total self time and the total duration
// of all root spans.
func layerSelf(spans []span) (self map[string]time.Duration, roots time.Duration) {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			roots += time.Duration(d)
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += time.Duration(d - covered(s, children[s.ID]))
	}
	return self, roots
}

// covered returns how much of s the union of its children's intervals
// covers; children of concurrent goroutines may overlap each other.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write saves the spans as NDJSON, one span per line.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
