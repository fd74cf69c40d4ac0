package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one closed interval recorded by a Tracer. Times are nanoseconds
// since the tracer started; Parent is the enclosing span's ID (0 for a
// root span).
type Span struct {
	Tid        int // recording goroutine (Fork id)
	ID, Parent int
	Name       string
	Group      string // session or request id the span belongs to
	Start, End int64
}

// Layer is the accumulated time of every span with one name.
type Layer struct {
	Count int64
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time child spans cover
}

type open struct {
	span    Span
	covered int64
}

// Tracer records nested spans on one goroutine. Every span feeds the
// per-name totals; the first Keep spans are also retained for the
// Chrome trace export, so a long traced run has bounded memory.
type Tracer struct {
	Keep  int
	tid   int
	clock func() int64 // ns since the tracer started
	next  int
	stack []open
	kept  []Span
	group string

	layers map[string]*Layer
}

// NewTracer starts a tracer that retains up to keep spans for export.
func NewTracer(keep int) *Tracer {
	t0 := time.Now()
	return newTracer(keep, func() int64 { return int64(time.Since(t0)) })
}

func newTracer(keep int, clock func() int64) *Tracer {
	return &Tracer{Keep: keep, clock: clock, layers: map[string]*Layer{}}
}

// Fork returns a tracer for another goroutine that shares this one's
// clock; Absorb folds it back in once that goroutine has finished.
func (t *Tracer) Fork(tid int) *Tracer {
	if t == nil {
		return nil
	}
	f := newTracer(t.Keep, t.clock)
	f.tid = tid
	return f
}

// Absorb adds a forked tracer's totals and retained spans to t.
func (t *Tracer) Absorb(o *Tracer) {
	if t == nil || o == nil {
		return
	}
	for name, l := range o.layers {
		dst := t.layers[name]
		if dst == nil {
			dst = &Layer{}
			t.layers[name] = dst
		}
		dst.Count += l.Count
		dst.Total += l.Total
		dst.Self += l.Self
	}
	for _, s := range o.kept {
		if len(t.kept) >= t.Keep {
			break
		}
		t.kept = append(t.kept, s)
	}
}

// SetGroup labels the spans begun from now on (a session or request id).
func (t *Tracer) SetGroup(g string) {
	if t != nil {
		t.group = g
	}
}

// Begin opens a span nested in the innermost open one. A nil tracer
// records nothing, so traced and untraced code paths are the same calls.
func (t *Tracer) Begin(name string) {
	if t == nil {
		return
	}
	t.next++
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].span.ID
	}
	t.stack = append(t.stack, open{span: Span{
		Tid: t.tid, ID: t.next, Parent: parent, Name: name, Group: t.group,
		Start: t.clock(),
	}})
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	o.span.End = t.clock()
	t.close(o)
}

func (t *Tracer) close(o open) {
	dur := o.span.End - o.span.Start
	if n := len(t.stack); n > 0 {
		t.stack[n-1].covered += dur
	}
	l := t.layers[o.span.Name]
	if l == nil {
		l = &Layer{}
		t.layers[o.span.Name] = l
	}
	l.Count++
	l.Total += time.Duration(dur)
	l.Self += time.Duration(dur - o.covered)
	if len(t.kept) < t.Keep {
		t.kept = append(t.kept, o.span)
	}
}

// Layer returns the totals for one span name (zero when none closed).
func (t *Tracer) Layer(name string) Layer {
	if l := t.layers[name]; l != nil {
		return *l
	}
	return Layer{}
}

// Layers returns the totals for every span name.
func (t *Tracer) Layers() map[string]Layer {
	out := make(map[string]Layer, len(t.layers))
	for k, v := range t.layers {
		out[k] = *v
	}
	return out
}

// WriteChrome writes the retained spans as Chrome trace-event JSON
// ("X" complete events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func (t *Tracer) WriteChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.kept {
		if i > 0 {
			w.WriteByte(',')
		}
		b, err := json.Marshal(event{
			Name: s.Name, Cat: "gmdfbench", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "group": s.Group},
		})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(b)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
