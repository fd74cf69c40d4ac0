package protocol

import (
	"fmt"
	"testing"
)

// vocabStream encodes n events whose Source/Arg1/Arg2 cycle through names
// distinct strings, plus one instruction, and returns the wire bytes and
// the events in order.
func vocabStream(t testing.TB, n, names int) ([]byte, []Event) {
	t.Helper()
	var wire []byte
	var evs []Event
	name := func(i int) string { return fmt.Sprintf("node%04d.ctrl", i%names) }
	for i := 0; i < n; i++ {
		e := Event{
			Type: EvTransition, Seq: uint16(i), Time: uint64(i) * 1000,
			Source: name(3 * i), Arg1: name(3*i + 1), Arg2: name(3*i + 2), Value: float64(i),
		}
		var err error
		if wire, err = AppendEvent(wire, e); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
	wire, err := AppendInstruction(wire, Instruction{Type: InReadVar, Seq: 1, Source: name(0)})
	if err != nil {
		t.Fatal(err)
	}
	return wire, evs
}

// TestDecoderInternBound: a stream with three times more distinct names
// than the intern table holds still decodes every event exactly, and the
// table never grows past its bound.
func TestDecoderInternBound(t *testing.T) {
	wire, want := vocabStream(t, maxInterned*3/2, maxInterned*3)
	var d Decoder
	var got []Event
	for off := 0; off < len(wire); off += 97 {
		evs, _ := d.Feed(wire[off:min(off+97, len(wire))])
		got = append(got, evs...)
		if len(d.names) > maxInterned {
			t.Fatalf("intern table holds %d names, bound %d", len(d.names), maxInterned)
		}
	}
	if d.Errors != 0 || len(got) != len(want) {
		t.Fatalf("decoded %d of %d events, %d errors", len(got), len(want), d.Errors)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDecoderSteadyStateAllocs: once the decoder has seen a stream's
// vocabulary and sized its buffers, decoding that vocabulary again
// allocates nothing — no strings, no output slices.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	wire, want := vocabStream(t, 40, 12)
	var d Decoder
	d.Feed(wire)
	var n int
	allocs := testing.AllocsPerRun(50, func() {
		evs, ins := d.Feed(wire)
		n = len(evs) + len(ins)
	})
	if n != len(want)+1 {
		t.Fatalf("decoded %d messages, want %d", n, len(want)+1)
	}
	if allocs != 0 {
		t.Fatalf("warm Feed: %v allocs, want 0", allocs)
	}
}

// TestDecoderRestoreKeepsBuffers: Restore rewinds the deframing state but
// keeps the output arrays, so a restored decoder decodes without
// allocating, into the same storage.
func TestDecoderRestoreKeepsBuffers(t *testing.T) {
	wire, want := vocabStream(t, 20, 6)
	var d Decoder
	d.Feed(wire[:len(wire)/2])
	st := d.Snapshot()
	evs, _ := d.Feed(wire[len(wire)/2:])
	first := &evs[0]
	d.Restore(st)
	var got []Event
	allocs := testing.AllocsPerRun(1, func() {
		d.Restore(st)
		got, _ = d.Feed(wire[len(wire)/2:])
	})
	if allocs != 0 {
		t.Fatalf("Feed after Restore: %v allocs, want 0", allocs)
	}
	if &got[0] != first {
		t.Fatal("Restore dropped the output buffer")
	}
	if got[len(got)-1] != want[len(want)-1] {
		t.Fatalf("last event after restore = %+v, want %+v", got[len(got)-1], want[len(want)-1])
	}
}

// BenchmarkProtocolFeed times the host decoding one UART drain: a warm
// decoder fed a chunk of 16 frames — transitions, state entries, signals
// and task latches over a small model vocabulary, as a board streams them
// every few virtual milliseconds.
func BenchmarkProtocolFeed(b *testing.B) {
	var wire []byte
	for i := range 16 {
		node := fmt.Sprintf("ring%d.node", i%4)
		var e Event
		switch i % 4 {
		case 0:
			e = Event{Type: EvTransition, Source: node, Arg1: "Wait", Arg2: "Hold"}
		case 1:
			e = Event{Type: EvStateEnter, Source: node, Arg1: "Hold"}
		case 2:
			e = Event{Type: EvSignal, Source: fmt.Sprintf("tok%d", i%4), Value: float64(i)}
		default:
			e = Event{Type: EvTaskDeadline, Source: fmt.Sprintf("ring%d", i%4)}
		}
		e.Seq, e.Time = uint16(i), uint64(i)*250_000
		var err error
		if wire, err = AppendEvent(wire, e); err != nil {
			b.Fatal(err)
		}
	}
	var d Decoder
	d.Feed(wire)
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	for b.Loop() {
		if evs, _ := d.Feed(wire); len(evs) != 16 {
			b.Fatalf("decoded %d events", len(evs))
		}
	}
}
