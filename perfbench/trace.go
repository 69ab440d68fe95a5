package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Calls made once per operation get a span each.
// Calls made once per simulated cycle or protocol round are too many to
// keep one by one, so they get an aggregate span per (parent, name): start
// of the first call, end of the last, the number of calls and their summed
// duration. Every span has busy == end-start when calls == 1.
type span struct {
	name       string
	op         int32 // operation id (grid point or transfer), -1 for none
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // ns since the tracer's epoch
	busy       int64 // summed duration of the calls, ns
	calls      int64
}

// spanID indexes the tracer's span list; noSpan is the root parent.
type spanID int32

const noSpan spanID = -1

// tracer keeps spans in memory for the whole run. A nil *tracer is valid
// and records nothing, so untraced passes run the same code with no clock
// reads at layer boundaries.
type tracer struct {
	epoch time.Time
	spans []span
	op    int32
	stack []spanID
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) parent() int32 {
	if len(t.stack) == 0 {
		return int32(noSpan)
	}
	return int32(t.stack[len(t.stack)-1])
}

// setOp tags the spans opened from now on with an operation id.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

// open starts a span and makes it the parent of spans opened before its
// close.
func (t *tracer) open(name string) spanID {
	if t == nil {
		return noSpan
	}
	now := t.now()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.op, parent: t.parent(), start: now, calls: 1})
	t.stack = append(t.stack, id)
	return id
}

// close ends the innermost open span, which must be id.
func (t *tracer) close(id spanID) {
	if t == nil {
		return
	}
	now := t.now()
	s := &t.spans[id]
	s.end, s.busy = now, now-s.start
	t.stack = t.stack[:len(t.stack)-1]
}

// agg creates an aggregate span under the innermost open span. It becomes
// the parent of aggregates created while it is pushed (see push/pop).
func (t *tracer) agg(name string) spanID {
	if t == nil {
		return noSpan
	}
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.op, parent: t.parent(), start: -1})
	return id
}

// push makes an aggregate the parent of aggregates created next.
func (t *tracer) push(id spanID) {
	if t != nil {
		t.stack = append(t.stack, id)
	}
}

func (t *tracer) pop() {
	if t != nil {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// begin reads the clock for a call about to be added to an aggregate.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// add records one call that started at t0 into an aggregate span.
func (t *tracer) add(id spanID, t0 int64) {
	if t == nil {
		return
	}
	now := t.now()
	s := &t.spans[id]
	if s.start < 0 {
		s.start = t0
	}
	s.end = now
	s.busy += now - t0
	s.calls++
}

// layerOf names a span's layer: the part of its name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// breakdown is what one traced run derives from its spans.
type breakdown struct {
	// busy is the summed duration of all spans of a name: the calls'
	// inclusive time.
	busy map[string]int64
	// self is each layer's self time: its spans' durations minus the part
	// covered by their child spans. Spans of the benchmark's own code are
	// named "bench.*", so the layers' self times sum exactly to the root
	// spans' total.
	self map[string]int64
	// root is the summed duration of the root spans (the traced passes).
	root int64
}

func (t *tracer) breakdown() breakdown {
	b := breakdown{
		busy: map[string]int64{},
		self: map[string]int64{},
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.busy
		} else {
			b.root += s.busy
		}
	}
	for i, s := range t.spans {
		b.busy[s.name] += s.busy
		b.self[layerOf(s.name)] += s.busy - child[i]
	}
	return b
}

// writeTSV writes every span, one per line, to path.
func (t *tracer) writeTSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns\tbusy_ns\tcalls")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", i, s.parent, s.op, s.name, s.start, s.end, s.busy, s.calls)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
