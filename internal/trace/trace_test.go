package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/protocol"
)

func sampleTrace() *Trace {
	t := New("heater_v1")
	t.Append(protocol.Event{Type: protocol.EvHello, Time: 0, Source: "heater_v1"}, 10)
	t.Append(protocol.Event{Type: protocol.EvStateEnter, Time: 1_000_000, Source: "heater.ctrl", Arg1: "Idle"}, 20)
	t.Append(protocol.Event{Type: protocol.EvSignal, Time: 2_000_000, Source: "heater.power", Value: 100}, 30)
	t.Append(protocol.Event{Type: protocol.EvStateEnter, Time: 3_000_000, Source: "heater.ctrl", Arg1: "Heating"}, 40)
	t.Append(protocol.Event{Type: protocol.EvWatch, Time: 4_000_000, Source: "heater.ctrl.__state", Arg1: "0", Arg2: "1"}, 50)
	t.Append(protocol.Event{Type: protocol.EvTaskStart, Time: 5_000_000, Source: "heater"}, 60)
	t.Append(protocol.Event{Type: protocol.EvTaskDeadline, Time: 5_500_000, Source: "heater"}, 70)
	t.Append(protocol.Event{Type: protocol.EvBreakHit, Time: 6_000_000, Source: "bp1"}, 80)
	return t
}

func TestAppendAndSpan(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 8 {
		t.Fatalf("Len = %d", tr.Len())
	}
	lo, hi := tr.Span()
	if lo != 0 || hi != 6_000_000 {
		t.Errorf("Span = %d..%d", lo, hi)
	}
	if tr.At(0).Seq != 1 || tr.At(7).Seq != 8 {
		t.Error("sequence numbering wrong")
	}
	var empty Trace
	if l, h := empty.Span(); l != 0 || h != 0 {
		t.Error("empty span wrong")
	}
}

func TestFilters(t *testing.T) {
	tr := sampleTrace()
	states := tr.OfType(protocol.EvStateEnter)
	if states.Len() != 2 {
		t.Errorf("state records = %d", states.Len())
	}
	mid := tr.Filter(func(r Record) bool { return r.Event.Time >= 2_000_000 && r.Event.Time <= 4_000_000 })
	if mid.Len() != 3 {
		t.Errorf("window records = %d", mid.Len())
	}
	if mid.Program != "heater_v1" {
		t.Error("filter lost program name")
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != tr.Program || got.Len() != tr.Len() {
		t.Fatal("roundtrip shape wrong")
	}
	for i, r := range tr.Records {
		if got.At(i) != r {
			t.Fatalf("record %d: %+v != %+v", i, got.At(i), r)
		}
	}
	// Appending after reload continues the sequence.
	r := got.Append(protocol.Event{Type: protocol.EvHello}, 0)
	if r.Seq != 9 {
		t.Errorf("resumed seq = %d", r.Seq)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("bad header should fail")
	}
	if _, err := ReadJSONL(strings.NewReader("{\"program\":\"x\"}\ngarbage\n")); err == nil {
		t.Error("bad record should fail")
	}
}

func TestTimingDiagram(t *testing.T) {
	tr := sampleTrace()
	d := tr.TimingDiagram()
	if d.Track("heater.ctrl") == nil {
		t.Fatal("state track missing")
	}
	ch := d.Track("heater.ctrl").Changes
	if len(ch) != 2 || ch[0].Value != "Idle" || ch[1].Value != "Heating" {
		t.Errorf("state track = %+v", ch)
	}
	if d.Track("heater.power") == nil || d.Track("heater.power").Changes[0].Value != "100" {
		t.Error("signal track wrong")
	}
	if d.Track("heater.ctrl.__state") == nil {
		t.Error("watch track missing")
	}
	if d.Track("task:heater") == nil || len(d.Track("task:heater").Changes) != 2 {
		t.Error("task track wrong")
	}
	if d.Track("breakpoints") == nil {
		t.Error("breakpoint track missing")
	}
	art := d.ASCII(60)
	if !strings.Contains(art, "heater.ctrl") {
		t.Error("ASCII diagram incomplete")
	}
}

func TestReplayerTiming(t *testing.T) {
	tr := sampleTrace()
	r := NewReplayer(tr, 1)
	// Nothing due before the first delta.
	if evs := r.Poll(0); len(evs) != 1 { // first event at base time 0 is due immediately
		t.Fatalf("at 0: %d events", len(evs))
	}
	if evs := r.Poll(999_999); len(evs) != 0 {
		t.Fatal("early delivery")
	}
	if evs := r.Poll(1_000_000); len(evs) != 1 || evs[0].Arg1 != "Idle" {
		t.Fatal("second event late/wrong")
	}
	// Double speed halves the due times.
	r2 := NewReplayer(tr, 2)
	evs := r2.Poll(1_500_000)
	if len(evs) != 4 { // events at t=0,1ms,2ms,3ms are due by 1.5ms at 2x
		t.Fatalf("2x replay: %d events", len(evs))
	}
	// Speed 0 floods everything.
	r3 := NewReplayer(tr, 0)
	if evs := r3.Poll(0); len(evs) != tr.Len() {
		t.Fatalf("flood replay: %d", len(evs))
	}
	if !r3.Done() {
		t.Error("Done false after flood")
	}
	r3.Reset()
	if r3.Done() {
		t.Error("Reset did not rewind")
	}
}

// Replay determinism: two replays of the same trace produce identical
// event sequences.
func TestReplayDeterminism(t *testing.T) {
	tr := sampleTrace()
	collect := func() []string {
		r := NewReplayer(tr, 1)
		var out []string
		for tick := uint64(0); !r.Done(); tick += 100_000 {
			for _, e := range r.Poll(tick) {
				out = append(out, e.String())
			}
			if tick > 1e9 {
				t.Fatal("replay stuck")
			}
		}
		return out
	}
	a, b := collect(), collect()
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Error("replay not deterministic")
	}
	if len(a) != tr.Len() {
		t.Errorf("replayed %d of %d", len(a), tr.Len())
	}
}

func TestTimingDiagramSchedulingIncidents(t *testing.T) {
	tr := New("p")
	tr.Append(protocol.Event{Type: protocol.EvTaskStart, Source: "low", Time: 0}, 0)
	tr.Append(protocol.Event{Type: protocol.EvPreempt, Source: "low", Arg1: "hog", Time: 700}, 1)
	tr.Append(protocol.Event{Type: protocol.EvDeadlineMiss, Source: "low", Time: 2000}, 2)
	d := tr.TimingDiagram()
	track := d.Track("task:low")
	if track == nil {
		t.Fatal("no task track")
	}
	if len(track.Marks) != 2 {
		t.Fatalf("marks = %d, want 2", len(track.Marks))
	}
	if track.Marks[0].Glyph != '^' || track.Marks[1].Glyph != '!' {
		t.Fatalf("glyphs = %q %q", track.Marks[0].Glyph, track.Marks[1].Glyph)
	}
	if track.Marks[0].Label != "preempt<hog" {
		t.Fatalf("label = %q", track.Marks[0].Label)
	}
}

// TestTimingDiagramBusLane: TDMA bus events project onto one shared "bus"
// track — departures as the slot-grid value lane (owner names) and losses
// as 'x' marks — so bus rounds read inline with the waveforms they carry.
func TestTimingDiagramBusLane(t *testing.T) {
	tr := New("p")
	tr.Append(protocol.Event{Type: protocol.EvBusSlot, Source: "nodeA", Arg1: "v_sig", Value: 0, Time: 100}, 0)
	tr.Append(protocol.Event{Type: protocol.EvBusSlot, Source: "nodeB", Arg1: "ack", Value: 1, Time: 250}, 1)
	tr.Append(protocol.Event{Type: protocol.EvFrameDropped, Source: "nodeA", Arg1: "v_sig", Value: 1, Time: 400}, 2)
	tr.Append(protocol.Event{Type: protocol.EvBusSlot, Source: "nodeA", Arg1: "v_sig", Value: 2, Time: 400}, 3)
	d := tr.TimingDiagram()
	bus := d.Track("bus")
	if bus == nil {
		t.Fatal("no bus track")
	}
	// nodeA -> nodeB -> nodeA: three value changes on the slot grid.
	if len(bus.Changes) != 3 || bus.Changes[0].Value != "nodeA" || bus.Changes[1].Value != "nodeB" || bus.Changes[2].Value != "nodeA" {
		t.Fatalf("slot lane = %+v", bus.Changes)
	}
	if len(bus.Marks) != 1 || bus.Marks[0].Glyph != 'x' || bus.Marks[0].Label != "drop:v_sig" {
		t.Fatalf("drop marks = %+v", bus.Marks)
	}
	// The drop glyph renders in the ASCII incident lane under the track.
	out := d.ASCII(40)
	if !strings.Contains(out, "x") || !strings.Contains(out, "bus") {
		t.Fatalf("ASCII missing bus lane:\n%s", out)
	}
}

// TestEmptyRecordListRoundTrip: an empty record list keeps its JSON form,
// null for a trace that never had records and [] when decoded as [], so
// a stored checkpoint re-encodes to the same bytes.
func TestEmptyRecordListRoundTrip(t *testing.T) {
	for _, in := range []string{`{"program":"x","records":null}`, `{"program":"x","records":[]}`} {
		var tr Trace
		if err := json.Unmarshal([]byte(in), &tr); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Trace{&tr, tr.Clone()} {
			out, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != in {
				t.Errorf("%s re-encoded as %s", in, out)
			}
		}
	}
	if out, _ := json.Marshal(New("x")); string(out) != `{"program":"x","records":null}` {
		t.Errorf("new trace encodes as %s", out)
	}
}
