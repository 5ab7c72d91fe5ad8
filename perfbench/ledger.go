package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracePairs is how many untraced/traced passes a traced run alternates
// to measure the tracing overhead (the median ratio is reported).
const tracePairs = 3

// Span is one timed call across a layer boundary. Times are nanoseconds
// on the ledger's monotonic clock. Parent is the enclosing span's ID (0 at
// the root); N is the number of windows the call carried.
type Span struct {
	ID, Parent int64
	Layer      string
	Start, End int64
	N          int
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Ledger collects spans in memory; they are written out when the
// benchmark ends. It is safe for concurrent use: the serve engine calls
// decorated models from its worker goroutines.
type Ledger struct {
	epoch  time.Time
	nextID atomic.Int64
	// parent is the span benchmark code has opened around the call it is
	// making into a layer; decorator spans recorded meanwhile hang below
	// it.
	parent atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewLedger returns an empty ledger whose clock starts now.
func NewLedger() *Ledger { return &Ledger{epoch: time.Now()} }

// Now reads the ledger clock.
func (l *Ledger) Now() int64 { return int64(time.Since(l.epoch)) }

// Add records a finished span below the current parent.
func (l *Ledger) Add(layer string, start, end int64, n int) {
	l.add(Span{ID: l.nextID.Add(1), Parent: l.parent.Load(), Layer: layer, Start: start, End: end, N: n})
}

func (l *Ledger) add(s Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Around times fn as a span of layer and makes it the parent of every
// span recorded while fn runs, on any goroutine. Calls to Around must not
// overlap in time, or spans would hang below the wrong parent.
func (l *Ledger) Around(layer string, n int, fn func()) Span {
	id := l.nextID.Add(1)
	s := Span{ID: id, Parent: l.parent.Load(), Layer: layer, N: n}
	l.parent.Store(id)
	s.Start = l.Now()
	fn()
	s.End = l.Now()
	l.parent.Store(s.Parent)
	l.add(s)
	return s
}

// Spans returns a copy of the recorded spans.
func (l *Ledger) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

// reset drops the recorded spans.
func (l *Ledger) reset() {
	l.mu.Lock()
	l.spans = nil
	l.mu.Unlock()
}

// WriteTSV writes the ledger, one span a line.
func (l *Ledger) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\tlayer\tstart_ns\tend_ns\tn")
	for _, s := range l.Spans() {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Layer, s.Start, s.End, s.N)
	}
	return bw.Flush()
}

// Breakdown splits a parent span's wall time among its children's layers
// and the parent's own self time. Children may run concurrently: at each
// instant the covered time is shared equally among the children active
// then, so Self plus the sum of ByLayer equals the parent's duration
// exactly.
type Breakdown struct {
	Total   float64
	Self    float64
	ByLayer map[string]float64
}

// childIndex groups spans by parent ID.
func childIndex(spans []Span) map[int64][]Span {
	idx := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			idx[s.Parent] = append(idx[s.Parent], s)
		}
	}
	return idx
}

// breakdown attributes parent's interval among children (clipped to it).
func breakdown(parent Span, children []Span) Breakdown {
	b := Breakdown{Total: float64(parent.Dur()), ByLayer: map[string]float64{}}
	type edge struct {
		t     int64
		delta int
		layer string
	}
	edges := make([]edge, 0, 2*len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		edges = append(edges, edge{s, +1, c.Layer}, edge{e, -1, c.Layer})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	active := map[string]int{}
	k := 0
	prev := parent.Start
	for _, e := range edges {
		if dt := float64(e.t - prev); dt > 0 {
			if k == 0 {
				b.Self += dt
			} else {
				for layer, n := range active {
					b.ByLayer[layer] += dt * float64(n) / float64(k)
				}
			}
		}
		prev = e.t
		active[e.layer] += e.delta
		if active[e.layer] == 0 {
			delete(active, e.layer)
		}
		k += e.delta
	}
	b.Self += float64(parent.End - prev)
	return b
}

// checkNesting reports spans that start before or end after their
// parent, and parents whose self time is negative.
func checkNesting(spans []Span) []string {
	byID := map[int64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var bad []string
	for _, s := range spans {
		if s.End < s.Start {
			bad = append(bad, fmt.Sprintf("span %d (%s) ends before it starts", s.ID, s.Layer))
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			bad = append(bad, fmt.Sprintf("span %d (%s) has no parent %d", s.ID, s.Layer, s.Parent))
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			bad = append(bad, fmt.Sprintf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Layer, p.ID, p.Layer))
		}
	}
	for id, kids := range childIndex(spans) {
		if b := breakdown(byID[id], kids); b.Self < 0 {
			bad = append(bad, fmt.Sprintf("span %d has negative self time", id))
		}
	}
	return bad
}

// durationsUS returns the layer's span durations in microseconds.
func durationsUS(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / 1e3
	}
	return out
}

// busyFrac is the share of [from, to) covered by at least one span.
func busyFrac(spans []Span, from, to int64) float64 {
	if to <= from {
		return 0
	}
	parent := Span{Start: from, End: to}
	return 1 - breakdown(parent, spans).Self/float64(to-from)
}
