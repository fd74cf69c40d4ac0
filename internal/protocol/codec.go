package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Frame layout (before byte stuffing), after SOF:
//
//	kind(1) type(1) seq(2) time(8) len(2) payload crc(2)
//
// kind distinguishes events (0x01) from instructions (0x02) so both can
// share a full-duplex link. The payload packs the string fields with one
// length byte each plus the float64 value:
//
//	srcLen(1) src a1Len(1) a1 a2Len(1) a2 value(8)
//
// The body is HDLC-style byte-stuffed: SOF (0x7E) and ESC (0x7D) bytes in
// the body are sent as ESC, b^0x20. A raw SOF therefore always marks a
// frame boundary, which guarantees the decoder can resynchronise after
// arbitrary line noise: the next genuine frame's SOF aborts whatever
// damaged frame the decoder was accumulating.
//
// The encoder makes one pass and no intermediate buffers: each body byte
// is folded into the running CRC (which covers the unstuffed bytes) and
// stuffed straight into the caller's buffer, then the two CRC bytes are
// stuffed after it. Appending into a buffer with room for the frame
// allocates nothing.

const (
	kindEvent       = 0x01
	kindInstruction = 0x02
	headerLen       = 1 + 1 + 2 + 8 + 2 // after SOF, before payload

	escByte = 0x7D
	escXor  = 0x20
)

// payloadLen is the packed payload length for the three string fields.
func payloadLen(src, a1, a2 string) int { return 3 + len(src) + len(a1) + len(a2) + 8 }

// UnstuffedLen is the length of e's wire frame before byte stuffing. Stuffing
// only lengthens a frame, so it is a lower bound on len(AppendEvent(nil, e)).
func UnstuffedLen(e Event) int {
	return 1 + headerLen + payloadLen(e.Source, e.Arg1, e.Arg2) + 2
}

// frameWriter stuffs a frame body into buf while folding every unstuffed
// byte into the running CRC. Multi-byte fields keep the CRC in a local for
// the whole field; updating w.crc per byte would store and reload it each
// time, which costs about a quarter of the encode.
type frameWriter struct {
	buf []byte
	crc uint16
}

// put appends one body byte: CRC first, then stuffed onto the wire.
func (w *frameWriter) put(b byte) {
	w.crc = crcByte(w.crc, b)
	w.stuff(b)
}

// stuff appends b, escaping SOF and ESC.
func (w *frameWriter) stuff(b byte) {
	if b == SOF || b == escByte {
		w.buf = append(w.buf, escByte, b^escXor)
		return
	}
	w.buf = append(w.buf, b)
}

func (w *frameWriter) put16(v uint16) {
	w.put(byte(v >> 8))
	w.put(byte(v))
}

func (w *frameWriter) put64(v uint64) {
	crc := w.crc
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(v >> shift)
		crc = crcByte(crc, b)
		w.stuff(b)
	}
	w.crc = crc
}

// putString appends a length-prefixed string field.
func (w *frameWriter) putString(s string) {
	w.put(byte(len(s)))
	crc := w.crc
	for i := 0; i < len(s); i++ {
		crc = crcByte(crc, s[i])
		w.stuff(s[i])
	}
	w.crc = crc
}

// appendFrame appends one complete stuffed frame to dst. On error dst is
// returned unchanged.
func appendFrame(dst []byte, kind, typ byte, seq uint16, t uint64, src, a1, a2 string, val float64) ([]byte, error) {
	if len(src) > 255 || len(a1) > 255 || len(a2) > 255 {
		return dst, fmt.Errorf("protocol: string field exceeds 255 bytes")
	}
	plen := payloadLen(src, a1, a2)
	if plen > MaxPayload {
		return dst, fmt.Errorf("protocol: payload %d exceeds max %d", plen, MaxPayload)
	}
	// Worst case every body byte is escaped; reserving that up front keeps
	// the frame to at most one allocation, and to none in a warm buffer.
	w := frameWriter{buf: slices.Grow(dst, 1+2*(headerLen+plen+2)), crc: crcInit}
	w.buf = append(w.buf, SOF)
	w.put(kind)
	w.put(typ)
	w.put16(seq)
	w.put64(t)
	w.put16(uint16(plen))
	w.putString(src)
	w.putString(a1)
	w.putString(a2)
	w.put64(math.Float64bits(val))
	crc := w.crc
	w.stuff(byte(crc >> 8))
	w.stuff(byte(crc))
	return w.buf, nil
}

// AppendEvent appends e's wire frame to dst and returns the extended
// buffer; on error dst is returned unchanged.
func AppendEvent(dst []byte, e Event) ([]byte, error) {
	return appendFrame(dst, kindEvent, byte(e.Type), e.Seq, e.Time, e.Source, e.Arg1, e.Arg2, e.Value)
}

// AppendInstruction appends in's wire frame to dst and returns the
// extended buffer; on error dst is returned unchanged.
func AppendInstruction(dst []byte, in Instruction) ([]byte, error) {
	return appendFrame(dst, kindInstruction, byte(in.Type), in.Seq, 0, in.Source, in.Arg1, "", in.Value)
}

// EncodeEvent serializes an event to a new wire frame.
func EncodeEvent(e Event) ([]byte, error) { return AppendEvent(nil, e) }

// EncodeInstruction serializes an instruction to a new wire frame.
func EncodeInstruction(in Instruction) ([]byte, error) { return AppendInstruction(nil, in) }

// unpackPayload splits a payload into its three string fields and the
// value. The strings come from the decoder's intern table, so a payload
// whose names were seen before allocates nothing.
func (d *Decoder) unpackPayload(p []byte) (src, a1, a2 string, val float64, err error) {
	var fields [3]string
	pos := 0
	for i := range fields {
		if pos >= len(p) {
			return "", "", "", 0, fmt.Errorf("protocol: truncated payload")
		}
		n := int(p[pos])
		pos++
		if pos+n > len(p) {
			return "", "", "", 0, fmt.Errorf("protocol: string field overruns payload")
		}
		fields[i] = d.intern(p[pos : pos+n])
		pos += n
	}
	if pos+8 != len(p) {
		return "", "", "", 0, fmt.Errorf("protocol: payload length mismatch (%d vs %d)", pos+8, len(p))
	}
	val = math.Float64frombits(binary.BigEndian.Uint64(p[pos:]))
	return fields[0], fields[1], fields[2], val, nil
}

// maxInterned bounds a Decoder's intern table. A model's vocabulary
// (machines, states, signals, tasks) is far smaller; a stream with more
// distinct names than this still decodes correctly, the table just starts
// over when it is full, so a hostile or generated model cannot grow a
// decoder's memory without bound.
const maxInterned = 1024

// intern returns b as a string, reusing the copy made the last time the
// same bytes were seen. The lookup m[string(b)] does not allocate.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names == nil {
		d.names = make(map[string]string)
	} else if len(d.names) >= maxInterned {
		clear(d.names)
	}
	d.names[s] = s
	return s
}

// Decoder incrementally parses a byte stream into events and instructions.
// Damaged input (bad CRC, bad lengths, truncation) is discarded up to the
// next raw SOF; the Errors counter tallies discarded fragments.
type Decoder struct {
	body    []byte // unstuffed body of the frame being accumulated
	inFrame bool
	esc     bool
	noise   bool // inside a run of pre-SOF noise (coalesced error count)
	Errors  int

	// events and instructions collect one Feed's output; the next Feed
	// reuses their arrays.
	events       []Event
	instructions []Instruction
	// names interns decoded strings (at most maxInterned entries). It is a
	// cache, not deframing state: Snapshot and Restore ignore it.
	names map[string]string
}

// Feed appends data and returns the complete, valid messages it decoded,
// in arrival order per slice. The returned slices alias buffers the
// decoder reuses: they are valid until the next Feed or Restore, so a
// caller that keeps messages longer must copy them (copying the Event and
// Instruction values is enough — their strings are immutable).
func (d *Decoder) Feed(data []byte) ([]Event, []Instruction) {
	d.events, d.instructions = d.events[:0], d.instructions[:0]
	for _, b := range data {
		d.step(b)
	}
	return d.events, d.instructions
}

// step advances the deframing state machine by one raw byte.
func (d *Decoder) step(b byte) {
	if b == SOF {
		// A raw SOF always starts a new frame; any partial frame in
		// progress was damaged or was noise.
		if d.inFrame && len(d.body) > 0 {
			d.Errors++
		}
		d.inFrame = true
		d.esc = false
		d.body = d.body[:0]
		return
	}
	if !d.inFrame {
		// A byte outside any frame is line noise. A run of noise counts as
		// one error, however long it is (see noteNoise).
		d.noteNoise()
		return
	}
	if d.esc {
		d.esc = false
		b ^= escXor
	} else if b == escByte {
		d.esc = true
		return
	}
	d.body = append(d.body, b)
	d.tryComplete()
}

// noteNoise coalesces noise error counting: the first noise byte since the
// decoder started or last decoded a frame counts one error, the rest of
// the run none.
func (d *Decoder) noteNoise() {
	if !d.noise {
		d.noise = true
		d.Errors++
	}
}

// tryComplete checks whether the accumulated body forms a full frame.
func (d *Decoder) tryComplete() {
	if len(d.body) < headerLen {
		return
	}
	plen := int(binary.BigEndian.Uint16(d.body[12:14]))
	if plen > MaxPayload {
		d.Errors++
		d.inFrame = false
		d.body = d.body[:0]
		return
	}
	total := headerLen + plen + 2
	if len(d.body) < total {
		return
	}
	if len(d.body) > total {
		// Cannot happen: we check after every byte. Guard anyway.
		d.Errors++
		d.inFrame = false
		d.body = d.body[:0]
		return
	}
	frame := d.body
	want := binary.BigEndian.Uint16(frame[total-2:])
	if CRC16(frame[:total-2]) != want {
		d.Errors++
		d.inFrame = false
		d.body = d.body[:0]
		return
	}
	kind, typ := frame[0], frame[1]
	seq := binary.BigEndian.Uint16(frame[2:4])
	tstamp := binary.BigEndian.Uint64(frame[4:12])
	src, a1, a2, val, err := d.unpackPayload(frame[headerLen : total-2])
	if err != nil {
		d.Errors++
	} else {
		switch kind {
		case kindEvent:
			d.events = append(d.events, Event{Type: EventType(typ), Seq: seq, Time: tstamp, Source: src, Arg1: a1, Arg2: a2, Value: val})
		case kindInstruction:
			d.instructions = append(d.instructions, Instruction{Type: InstructionType(typ), Seq: seq, Source: src, Arg1: a1, Value: val})
		default:
			d.Errors++
		}
	}
	d.inFrame = false
	d.noise = false
	d.body = d.body[:0]
}

// Pending returns the number of buffered, not-yet-decodable body bytes.
func (d *Decoder) Pending() int { return len(d.body) }

// DecoderState is the portable form of a Decoder's deframing state: the
// partially accumulated frame body and the resynchronisation flags. A
// checkpoint taken while a frame straddles the capture instant restores
// with the decoder mid-frame, so the remaining bytes complete it exactly
// as they would have.
type DecoderState struct {
	Body    []byte `json:"body,omitempty"`
	InFrame bool   `json:"inFrame,omitempty"`
	Esc     bool   `json:"esc,omitempty"`
	Noise   bool   `json:"noise,omitempty"`
	Errors  int    `json:"errors,omitempty"`
}

// Clone deep-copies the deframing state (partial frame body duplicated,
// nil-ness preserved).
func (st DecoderState) Clone() DecoderState {
	cp := st
	cp.Body = slices.Clone(st.Body)
	return cp
}

// Snapshot captures the deframing state. Decoded messages are not part of
// it: Feed hands back everything it decoded, and callers consume the
// result synchronously.
func (d *Decoder) Snapshot() DecoderState {
	st := DecoderState{InFrame: d.inFrame, Esc: d.esc, Noise: d.noise, Errors: d.Errors}
	if len(d.body) > 0 {
		st.Body = append([]byte(nil), d.body...)
	}
	return st
}

// Restore rewinds the decoder to a previously captured deframing state.
func (d *Decoder) Restore(st DecoderState) {
	d.body = append(d.body[:0], st.Body...)
	d.inFrame = st.InFrame
	d.esc = st.Esc
	d.noise = st.Noise
	d.Errors = st.Errors
	d.events, d.instructions = d.events[:0], d.instructions[:0]
}
