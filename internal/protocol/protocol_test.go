package protocol

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1 (standard check value).
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 check value = %#x, want 0x29B1", got)
	}
	if CRC16(nil) != 0xFFFF {
		t.Errorf("CRC16(empty) should be the init value")
	}
}

func TestEventRoundtrip(t *testing.T) {
	events := []Event{
		{Type: EvHello, Seq: 1, Time: 0, Source: "heater_v1"},
		{Type: EvStateEnter, Seq: 2, Time: 1_000_000, Source: "ctrl", Arg1: "Heating"},
		{Type: EvTransition, Seq: 3, Time: 2_500_000, Source: "ctrl", Arg1: "Idle", Arg2: "Heating"},
		{Type: EvSignal, Seq: 4, Time: 3_000_000, Source: "temp", Value: 23.75},
		{Type: EvTaskStart, Seq: 5, Time: 4_000_000, Source: "ctrl_task"},
		{Type: EvTaskDeadline, Seq: 6, Time: 5_000_000, Source: "ctrl_task"},
		{Type: EvBreakHit, Seq: 7, Time: 6_000_000, Source: "bp1"},
		{Type: EvHalted, Seq: 8, Time: 6_000_001},
		{Type: EvResumed, Seq: 9, Time: 6_000_002},
		{Type: EvWatch, Seq: 10, Time: 7_000_000, Source: "s", Arg1: "0", Arg2: "2", Value: 2},
	}
	var wire []byte
	for _, e := range events {
		b, err := EncodeEvent(e)
		if err != nil {
			t.Fatalf("EncodeEvent(%v): %v", e, err)
		}
		wire = append(wire, b...)
	}
	var d Decoder
	got, ins := d.Feed(wire)
	if len(ins) != 0 {
		t.Fatalf("unexpected instructions: %v", ins)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
	if d.Errors != 0 || d.Pending() != 0 {
		t.Errorf("Errors=%d Pending=%d after clean stream", d.Errors, d.Pending())
	}
}

func TestInstructionRoundtrip(t *testing.T) {
	ins := []Instruction{
		{Type: InPause, Seq: 1},
		{Type: InResume, Seq: 2},
		{Type: InStep, Seq: 3},
		{Type: InSetBreak, Seq: 4, Source: "bp1", Arg1: "state == \"Heating\""},
		{Type: InClearBreak, Seq: 5, Source: "bp1"},
		{Type: InReadVar, Seq: 6, Source: "temp"},
		{Type: InWriteVar, Seq: 7, Source: "setpoint", Value: 21.5},
	}
	var wire []byte
	for _, in := range ins {
		b, err := EncodeInstruction(in)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, b...)
	}
	var d Decoder
	evs, got := d.Feed(wire)
	if len(evs) != 0 {
		t.Fatalf("unexpected events: %v", evs)
	}
	if len(got) != len(ins) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(ins))
	}
	for i := range ins {
		if got[i] != ins[i] {
			t.Errorf("instruction %d: %+v != %+v", i, got[i], ins[i])
		}
	}
}

func TestChunkedDelivery(t *testing.T) {
	e := Event{Type: EvSignal, Seq: 42, Time: 99, Source: "sig", Value: -1.5}
	wire, err := EncodeEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	var got []Event
	for _, b := range wire { // byte-at-a-time, as a UART would deliver
		evs, _ := d.Feed([]byte{b})
		got = append(got, evs...)
	}
	if len(got) != 1 || got[0] != e {
		t.Fatalf("chunked decode got %v", got)
	}
}

func TestResyncAfterGarbage(t *testing.T) {
	e1 := Event{Type: EvStateEnter, Seq: 1, Source: "m", Arg1: "A"}
	e2 := Event{Type: EvStateEnter, Seq: 2, Source: "m", Arg1: "B"}
	w1, _ := EncodeEvent(e1)
	w2, _ := EncodeEvent(e2)

	var stream []byte
	stream = append(stream, []byte{0x00, 0x12, 0x99}...) // leading noise
	stream = append(stream, w1...)
	corrupt := append([]byte{}, w1...)
	corrupt[len(corrupt)-1] ^= 0xFF // break CRC
	stream = append(stream, corrupt...)
	stream = append(stream, 0x7E, 0x01) // truncated fake frame start... followed by real frame
	stream = append(stream, w2...)

	var d Decoder
	evs, _ := d.Feed(stream)
	if len(evs) < 2 {
		t.Fatalf("decoded %d events, want >= 2 (resync failed)", len(evs))
	}
	if evs[0] != e1 || evs[len(evs)-1] != e2 {
		t.Errorf("wrong events after resync: %v", evs)
	}
	if d.Errors == 0 {
		t.Error("garbage should increment Errors")
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	long := strings.Repeat("x", 300)
	if _, err := EncodeEvent(Event{Type: EvHello, Source: long}); err == nil {
		t.Error("oversize string field should fail")
	}
	// A frame advertising an absurd length must not stall the decoder.
	bogus := []byte{SOF, kindEvent, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}
	var d Decoder
	d.Feed(bogus)
	d.Feed(make([]byte, 64))
	if d.Errors == 0 {
		t.Error("bogus length should count as error")
	}
}

func TestUnknownKindSkipped(t *testing.T) {
	payload, _ := refPackPayload("s", "", "", 0)
	frame := refEncodeFrame(0x55, 1, 1, 0, payload) // unknown kind, valid CRC
	var d Decoder
	evs, ins := d.Feed(frame)
	if len(evs) != 0 || len(ins) != 0 {
		t.Error("unknown kind should produce nothing")
	}
	if d.Errors != 1 {
		t.Errorf("Errors = %d, want 1", d.Errors)
	}
	if d.Pending() != 0 {
		t.Error("unknown-kind frame should still be consumed")
	}
}

func TestTypeStrings(t *testing.T) {
	evTypes := []EventType{EvHello, EvStateEnter, EvTransition, EvSignal, EvTaskStart,
		EvTaskDeadline, EvBreakHit, EvHalted, EvResumed, EvWatch}
	seen := map[string]bool{}
	for _, typ := range evTypes {
		s := typ.String()
		if s == "" || seen[s] {
			t.Errorf("EventType %d has bad name %q", typ, s)
		}
		seen[s] = true
	}
	if !strings.Contains(EventType(200).String(), "200") {
		t.Error("unknown event type name")
	}
	inTypes := []InstructionType{InPause, InResume, InStep, InSetBreak, InClearBreak, InReadVar, InWriteVar}
	for _, typ := range inTypes {
		if typ.String() == "" || strings.Contains(typ.String(), "Type(") {
			t.Errorf("InstructionType %d has bad name", typ)
		}
	}
	if !strings.Contains(InstructionType(200).String(), "200") {
		t.Error("unknown instruction type name")
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Type: EvStateEnter, Time: 5, Source: "m", Arg1: "On"}, "enter On"},
		{Event{Type: EvTransition, Source: "m", Arg1: "A", Arg2: "B"}, "A -> B"},
		{Event{Type: EvSignal, Source: "t", Value: 2.5}, "t = 2.5"},
		{Event{Type: EvWatch, Source: "s", Arg1: "1", Arg2: "2"}, "watch s"},
		{Event{Type: EvHello, Source: "p"}, "Hello p"},
	}
	for _, c := range cases {
		if !strings.Contains(c.e.String(), c.want) {
			t.Errorf("String(%+v) = %q missing %q", c.e, c.e.String(), c.want)
		}
	}
}

// Property: encode/decode is the identity for arbitrary events.
func TestQuickEventRoundtrip(t *testing.T) {
	f := func(typ uint8, seq uint16, tm uint64, src, a1, a2 string, val float64) bool {
		if len(src) > 255 || len(a1) > 255 || len(a2) > 255 {
			return true
		}
		e := Event{
			Type: EventType(typ%10 + 1), Seq: seq, Time: tm,
			Source: src, Arg1: a1, Arg2: a2, Value: val,
		}
		wire, err := EncodeEvent(e)
		if err != nil {
			return false
		}
		var d Decoder
		evs, _ := d.Feed(wire)
		if len(evs) != 1 {
			return false
		}
		g := evs[0]
		if math.IsNaN(val) {
			return g.Type == e.Type && g.Source == e.Source && math.IsNaN(g.Value)
		}
		return g == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: a valid frame embedded at a random position in random noise is
// still recovered.
func TestQuickResync(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	e := Event{Type: EvSignal, Seq: 7, Time: 123, Source: "x", Value: 1}
	wire, _ := EncodeEvent(e)
	for i := 0; i < 200; i++ {
		pre := make([]byte, r.Intn(40))
		r.Read(pre)
		// Noise must not contain a prefix that forms a longer valid frame;
		// extremely unlikely, and the trailing real frame is still found
		// because resync walks byte by byte.
		stream := append(append([]byte{}, pre...), wire...)
		var d Decoder
		evs, _ := d.Feed(stream)
		found := false
		for _, g := range evs {
			if g == e {
				found = true
			}
		}
		if !found {
			t.Fatalf("frame lost in noise (iteration %d, noise %v)", i, pre)
		}
	}
}

// Property: decoder never panics on arbitrary input and eventually drains.
func TestQuickDecoderTotal(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var d Decoder
		for _, c := range chunks {
			d.Feed(c)
		}
		return d.Pending() <= MaxPayload+headerLen+3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPayloadUnpackErrors(t *testing.T) {
	var d Decoder
	if _, _, _, _, err := d.unpackPayload([]byte{}); err == nil {
		t.Error("empty payload should fail")
	}
	if _, _, _, _, err := d.unpackPayload([]byte{5, 'a'}); err == nil {
		t.Error("overrun should fail")
	}
	if _, _, _, _, err := d.unpackPayload([]byte{0, 0, 0, 1, 2, 3}); err == nil {
		t.Error("bad tail should fail")
	}
	ok, _ := refPackPayload("a", "b", "c", 1)
	if _, _, _, _, err := d.unpackPayload(append(ok, 0)); err == nil {
		t.Error("trailing byte should fail")
	}
}

func TestDecoderKeepsPartialFrame(t *testing.T) {
	e := Event{Type: EvSignal, Source: "s", Value: 3}
	wire, _ := EncodeEvent(e)
	var d Decoder
	evs, _ := d.Feed(wire[:len(wire)-1])
	if len(evs) != 0 {
		t.Fatal("incomplete frame decoded")
	}
	if d.Pending() == 0 {
		t.Error("partial frame should be pending")
	}
	evs, _ = d.Feed(wire[len(wire)-1:])
	if len(evs) != 1 || !bytes.Equal([]byte(evs[0].Source), []byte("s")) {
		t.Fatal("completion failed")
	}
}
