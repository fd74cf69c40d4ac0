package graphics

import (
	"fmt"
	"strings"
)

// Timing diagrams: the paper's replay function associates the recorded
// execution trace with a timing diagram so millisecond-scale model-level
// behaviour (state transitions, signal changes) can be inspected offline.
// A Diagram holds per-signal tracks of timestamped discrete values and
// renders them as step waveforms in ASCII.

// Change is one timestamped value on a track. T is in nanoseconds of
// virtual target time.
type Change struct {
	T     uint64
	Value string
}

// Mark is one scheduling incident pinned to an instant on a track — a
// deadline miss, a preemption or a bus frame loss — rendered as a lane
// marker rather than a value change (Bianchi-style inline annotation of
// the waveform).
type Mark struct {
	T     uint64
	Glyph byte   // one-column ASCII marker ('!' miss, '^' preempt, 'x' bus drop)
	Label string // full annotation for SVG tooltips/labels
}

// Track is the history of one observed variable or model element.
type Track struct {
	Name    string
	Changes []Change
	Marks   []Mark
}

// valueAt returns the value in effect at time t ("" before first change).
func (tr *Track) valueAt(t uint64) string {
	v := ""
	for _, c := range tr.Changes {
		if c.T > t {
			break
		}
		v = c.Value
	}
	return v
}

// Diagram is an ordered set of tracks over a common time window.
type Diagram struct {
	tracks []*Track
	index  map[string]*Track
}

// NewDiagram creates an empty timing diagram.
func NewDiagram() *Diagram {
	return &Diagram{index: map[string]*Track{}}
}

// Record appends a change to the named track, creating it on first use.
// Appends must be monotone in time per track; out-of-order samples are
// clamped to the last timestamp (traces are recorded in order, so this
// only triggers for merged replays).
func (d *Diagram) Record(track string, t uint64, val string) {
	tr := d.index[track]
	if tr == nil {
		tr = &Track{Name: track}
		d.index[track] = tr
		d.tracks = append(d.tracks, tr)
	}
	if n := len(tr.Changes); n > 0 && t < tr.Changes[n-1].T {
		t = tr.Changes[n-1].T
	}
	// Coalesce repeated values.
	if n := len(tr.Changes); n > 0 && tr.Changes[n-1].Value == val {
		return
	}
	tr.Changes = append(tr.Changes, Change{T: t, Value: val})
}

// MarkAt pins an incident marker to the named track (created on first
// use), keeping marks ordered by time.
func (d *Diagram) MarkAt(track string, t uint64, glyph byte, label string) {
	tr := d.index[track]
	if tr == nil {
		tr = &Track{Name: track}
		d.index[track] = tr
		d.tracks = append(d.tracks, tr)
	}
	if n := len(tr.Marks); n > 0 && t < tr.Marks[n-1].T {
		t = tr.Marks[n-1].T
	}
	tr.Marks = append(tr.Marks, Mark{T: t, Glyph: glyph, Label: label})
}

// Tracks returns the tracks in creation order.
func (d *Diagram) Tracks() []*Track { return d.tracks }

// Track returns the named track, or nil.
func (d *Diagram) Track(name string) *Track { return d.index[name] }

// Span returns the [t0, t1] window covering all changes.
func (d *Diagram) Span() (uint64, uint64) {
	var t0, t1 uint64
	first := true
	grow := func(t uint64) {
		if first {
			t0, t1, first = t, t, false
			return
		}
		if t < t0 {
			t0 = t
		}
		if t > t1 {
			t1 = t
		}
	}
	for _, tr := range d.tracks {
		for _, c := range tr.Changes {
			grow(c.T)
		}
		for _, m := range tr.Marks {
			grow(m.T)
		}
	}
	return t0, t1
}

// ASCII renders the diagram as one step-waveform row per track, width
// columns wide. Each column covers an equal slice of the time window; the
// value shown is the one in effect at the column's start instant. A header
// row marks the window bounds in milliseconds.
func (d *Diagram) ASCII(width int) string {
	if width < 16 {
		width = 16
	}
	if len(d.tracks) == 0 {
		return "(empty timing diagram)\n"
	}
	t0, t1 := d.Span()
	if t1 == t0 {
		t1 = t0 + 1
	}
	nameW := 0
	for _, tr := range d.tracks {
		if len(tr.Name) > nameW {
			nameW = len(tr.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  |%s|\n", nameW, "t(ms)",
		centerPad(fmt.Sprintf("%.3f .. %.3f", float64(t0)/1e6, float64(t1)/1e6), width))
	for _, tr := range d.tracks {
		fmt.Fprintf(&b, "%*s  |", nameW, tr.Name)
		prev := ""
		pending := "" // value label waiting to be printed
		for col := 0; col < width; col++ {
			t := t0 + uint64(float64(col)*float64(t1-t0)/float64(width))
			v := tr.valueAt(t)
			if v != prev {
				b.WriteByte('|')
				prev = v
				pending = v
				continue
			}
			if pending != "" {
				b.WriteByte(pending[0])
				pending = pending[1:]
				continue
			}
			b.WriteByte('_')
		}
		b.WriteString("|\n")
		if len(tr.Marks) > 0 {
			// Incident lane under the waveform: one glyph per mark at its
			// column ('!' deadline miss, '^' preemption); colliding marks
			// keep the later glyph.
			lane := make([]byte, width)
			for i := range lane {
				lane[i] = ' '
			}
			for _, m := range tr.Marks {
				col := int(float64(m.T-t0) / float64(t1-t0) * float64(width))
				if col >= width {
					col = width - 1
				}
				lane[col] = m.Glyph
			}
			fmt.Fprintf(&b, "%*s  |%s|\n", nameW, "", lane)
		}
	}
	return b.String()
}

func centerPad(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", w-len(s)-left)
}
