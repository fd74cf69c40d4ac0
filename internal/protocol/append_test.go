package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// The reference encoder is the original two-pass one, kept here as the
// oracle for the single-pass AppendEvent/AppendInstruction: pack the
// payload, build the unstuffed body, checksum it bit by bit, then stuff
// the whole body into a fresh frame.

func refCRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func refPackPayload(src, a1, a2 string, val float64) ([]byte, error) {
	if len(src) > 255 || len(a1) > 255 || len(a2) > 255 {
		return nil, fmt.Errorf("protocol: string field exceeds 255 bytes")
	}
	out := make([]byte, 0, 3+len(src)+len(a1)+len(a2)+8)
	for _, s := range []string{src, a1, a2} {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(val))
	return out, nil
}

func refStuff(body []byte) []byte {
	out := make([]byte, 0, len(body)+4)
	for _, b := range body {
		if b == SOF || b == escByte {
			out = append(out, escByte, b^escXor)
			continue
		}
		out = append(out, b)
	}
	return out
}

func refEncodeFrame(kind, typ byte, seq uint16, t uint64, payload []byte) []byte {
	body := make([]byte, 0, headerLen+len(payload)+2)
	body = append(body, kind, typ)
	body = binary.BigEndian.AppendUint16(body, seq)
	body = binary.BigEndian.AppendUint64(body, t)
	body = binary.BigEndian.AppendUint16(body, uint16(len(payload)))
	body = append(body, payload...)
	body = binary.BigEndian.AppendUint16(body, refCRC16(body))
	return append([]byte{SOF}, refStuff(body)...)
}

func refEncodeEvent(e Event) ([]byte, error) {
	payload, err := refPackPayload(e.Source, e.Arg1, e.Arg2, e.Value)
	if err != nil {
		return nil, err
	}
	return refEncodeFrame(kindEvent, byte(e.Type), e.Seq, e.Time, payload), nil
}

func refEncodeInstruction(in Instruction) ([]byte, error) {
	payload, err := refPackPayload(in.Source, in.Arg1, "", in.Value)
	if err != nil {
		return nil, err
	}
	return refEncodeFrame(kindInstruction, byte(in.Type), in.Seq, 0, payload), nil
}

// checkEvent compares AppendEvent against the reference, both into an
// empty buffer and behind an existing prefix.
func checkEvent(t *testing.T, e Event) {
	t.Helper()
	want, werr := refEncodeEvent(e)
	got, gerr := AppendEvent(nil, e)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%+v: error mismatch: reference %v, append %v", e, werr, gerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n got %x\nwant %x", e, got, want)
	}
	prefix := []byte{1, 2, 3}
	got, _ = AppendEvent(prefix, e)
	if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
		t.Fatalf("%+v: append behind a prefix:\n got %x\nwant 010203%x", e, got, want)
	}
	if werr == nil && len(want) < UnstuffedLen(e) {
		t.Fatalf("%+v: frame of %d bytes is shorter than UnstuffedLen %d", e, len(want), UnstuffedLen(e))
	}
}

func checkInstruction(t *testing.T, in Instruction) {
	t.Helper()
	want, werr := refEncodeInstruction(in)
	got, gerr := AppendInstruction(nil, in)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%+v: error mismatch: reference %v, append %v", in, werr, gerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n got %x\nwant %x", in, got, want)
	}
}

// stuffing is a string made of nothing but the two bytes the stuffer
// escapes.
const stuffing = "\x7e\x7d\x7e"

// TestAppendMatchesReference: SOF and ESC bytes in every header field and
// every string field, a payload length of exactly 0x7E/0x7D, CRCs whose
// bytes need escaping, oversize fields, and the value's bit pattern.
func TestAppendMatchesReference(t *testing.T) {
	sofTime := uint64(0x7E7D7E7D7E7D7E7D)
	cases := []Event{
		{},
		{Type: EventType(SOF), Seq: 1},
		{Type: EventType(escByte), Seq: 1},
		{Type: EvSignal, Seq: 0x7E7D},
		{Type: EvSignal, Seq: 0x007E},
		{Type: EvSignal, Seq: 0x7D00},
		{Type: EvSignal, Time: sofTime},
		{Type: EvSignal, Time: ^sofTime},
		{Type: EvTransition, Source: stuffing, Arg1: "a"},
		{Type: EvTransition, Source: "m", Arg1: stuffing},
		{Type: EvTransition, Source: "m", Arg1: "A", Arg2: stuffing},
		{Type: EvSignal, Source: "s", Value: math.Float64frombits(0x7E7D7E7D7E7D7E7D)},
		{Type: EvSignal, Source: "s", Value: math.NaN()},
		{Type: EvSignal, Source: "s", Value: math.Inf(-1)},
		// payload length 0x7E and 0x7D: 3 length bytes + 8 value bytes + strings.
		{Type: EvHello, Source: strings.Repeat("x", 0x7E-11)},
		{Type: EvHello, Source: strings.Repeat("y", 0x7D-11)},
		// every field at its 255-byte limit, filled with escaped bytes.
		{Type: EvWatch, Source: strings.Repeat("\x7e", 255), Arg1: strings.Repeat("\x7d", 255), Arg2: strings.Repeat("z", 255)},
		// one byte over the limit in each field.
		{Type: EvHello, Source: strings.Repeat("x", 256)},
		{Type: EvHello, Arg1: strings.Repeat("x", 256)},
		{Type: EvHello, Arg2: strings.Repeat("x", 256)},
	}
	for _, e := range cases {
		checkEvent(t, e)
	}
	// Walk sequence numbers until both CRC bytes have been SOF or ESC.
	crcHi, crcLo := 0, 0
	for seq := 0; seq < 1<<16 && (crcHi == 0 || crcLo == 0); seq++ {
		e := Event{Type: EvStateEnter, Seq: uint16(seq), Time: 12345, Source: "heater.thermostat", Arg1: "Heating"}
		want, _ := refEncodeEvent(e)
		payload, _ := refPackPayload(e.Source, e.Arg1, e.Arg2, e.Value)
		body := make([]byte, 0, headerLen+len(payload))
		body = append(body, kindEvent, byte(e.Type))
		body = binary.BigEndian.AppendUint16(body, e.Seq)
		body = binary.BigEndian.AppendUint64(body, e.Time)
		body = binary.BigEndian.AppendUint16(body, uint16(len(payload)))
		crc := refCRC16(append(body, payload...))
		if hi := byte(crc >> 8); hi == SOF || hi == escByte {
			crcHi++
		} else if lo := byte(crc); lo == SOF || lo == escByte {
			crcLo++
		} else {
			continue
		}
		got, _ := AppendEvent(nil, e)
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d (crc %#04x):\n got %x\nwant %x", seq, crc, got, want)
		}
	}
	if crcHi == 0 || crcLo == 0 {
		t.Fatalf("no frame with an escaped CRC byte found (hi %d, lo %d)", crcHi, crcLo)
	}

	instrs := []Instruction{
		{},
		{Type: InstructionType(SOF), Seq: 0x7E7D},
		{Type: InSetBreak, Seq: 4, Source: stuffing, Arg1: stuffing, Value: 2.5},
		{Type: InWriteVar, Source: "setpoint", Value: math.Float64frombits(0x7D7E7D7E7D7E7D7E)},
		{Type: InSetBreak, Arg1: strings.Repeat("x", 256)},
	}
	for _, in := range instrs {
		checkInstruction(t, in)
	}
}

// TestAppendMatchesReferenceOnCorpus re-encodes every message the decoder
// fuzz corpus yields, through both encoders.
func TestAppendMatchesReferenceOnCorpus(t *testing.T) {
	n := 0
	for _, seed := range decoderSeeds(t) {
		var d Decoder
		evs, ins := d.Feed(seed)
		for _, e := range evs {
			checkEvent(t, e)
			n++
		}
		for _, in := range ins {
			checkInstruction(t, in)
			n++
		}
	}
	if n == 0 {
		t.Fatal("corpus decoded to no messages")
	}
}

// FuzzAppendEventMatchesReference: arbitrary field values encode to the
// reference bytes.
func FuzzAppendEventMatchesReference(f *testing.F) {
	f.Add(uint8(EvStateEnter), uint16(7), uint64(12345), "heater.thermostat", "Heating", "", 0.0)
	f.Add(uint8(EvSignal), uint16(0x7E7D), uint64(0x7E7D7E7D7E7D7E7D), stuffing, stuffing, stuffing, -1.0)
	f.Add(uint8(SOF), uint16(escByte), uint64(SOF), "", "", "", math.Inf(1))
	f.Fuzz(func(t *testing.T, typ uint8, seq uint16, tm uint64, src, a1, a2 string, val float64) {
		checkEvent(t, Event{Type: EventType(typ), Seq: seq, Time: tm, Source: src, Arg1: a1, Arg2: a2, Value: val})
		checkInstruction(t, Instruction{Type: InstructionType(typ), Seq: seq, Source: src, Arg1: a1, Value: val})
	})
}

// TestCRC16MatchesBitwise: the table-driven CRC equals the bitwise one on
// every single byte and on every prefix of a mixed buffer.
func TestCRC16MatchesBitwise(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := CRC16([]byte{byte(b)}), refCRC16([]byte{byte(b)}); got != want {
			t.Fatalf("CRC16(%#02x) = %#04x, want %#04x", b, got, want)
		}
	}
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = byte(i*131 + i>>3)
	}
	for n := range buf {
		if got, want := CRC16(buf[:n]), refCRC16(buf[:n]); got != want {
			t.Fatalf("CRC16 of %d bytes = %#04x, want %#04x", n, got, want)
		}
	}
}

// TestAppendAllocs: appending into a warm buffer allocates nothing.
func TestAppendAllocs(t *testing.T) {
	e := Event{Type: EvTransition, Seq: 0x7E7D, Time: 1_000_000, Source: "ctrl\x7e", Arg1: "Idle", Arg2: "Heating", Value: 1}
	in := Instruction{Type: InSetBreak, Seq: 4, Source: "bp1", Arg1: "x > 1", Value: 2.5}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendEvent(buf[:0], e) }); n != 0 {
		t.Errorf("AppendEvent into a warm buffer: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendInstruction(buf[:0], in) }); n != 0 {
		t.Errorf("AppendInstruction into a warm buffer: %v allocs/op, want 0", n)
	}
}

var benchWire []byte

// BenchmarkProtocolAppendEvent times encoding one typical transition
// event into a reused buffer: the target firmware's per-event cost.
func BenchmarkProtocolAppendEvent(b *testing.B) {
	e := Event{Type: EvTransition, Seq: 42, Time: 2_500_000, Source: "heater.thermostat", Arg1: "Idle", Arg2: "Heating"}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for b.Loop() {
		buf, _ = AppendEvent(buf[:0], e)
	}
	benchWire = buf
}
