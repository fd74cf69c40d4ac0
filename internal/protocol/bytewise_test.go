package protocol

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// bytewiseDecoder is the deframing state machine Feed replaced, kept
// verbatim but for the receiver: it steps one byte at a time and checks
// for a complete frame after every body byte. FuzzFeedMatchesBytewise
// holds the run-copying Feed to it.
type bytewiseDecoder struct{ Decoder }

func (d *bytewiseDecoder) Feed(data []byte) ([]Event, []Instruction) {
	d.events, d.instructions = d.events[:0], d.instructions[:0]
	for _, b := range data {
		d.step(b)
	}
	return d.events, d.instructions
}

// step advances the deframing state machine by one raw byte.
func (d *bytewiseDecoder) step(b byte) {
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

// tryComplete checks whether the accumulated body forms a full frame.
func (d *bytewiseDecoder) tryComplete() {
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

// feedStream builds a wire stream from fuzz bytes: each control byte
// either appends a frame — a valid one, one whose body is mostly SOF and
// ESC bytes, or one whose length field exceeds MaxPayload — or copies the
// next few input bytes verbatim as noise.
func feedStream(t testing.TB, data []byte) []byte {
	frames := seedFrames(t)
	stuffed, err := EncodeEvent(Event{Type: EvWatch, Source: string(bytes.Repeat([]byte{SOF, escByte, 'a'}, 85)), Arg1: "x", Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	oversized := append([]byte(nil), frames[0]...)
	oversized[13], oversized[14] = 0x04, 0x01 // SOF + 12 header bytes, then the length: MaxPayload+1
	frames = append(frames, stuffed, oversized)
	var out []byte
	for i := 0; i < len(data); i++ {
		c := data[i]
		switch {
		case c < 0xC0:
			out = append(out, frames[int(c)%len(frames)]...)
		default:
			n := int(c-0xC0)%8 + 1
			out = append(out, data[i+1:min(i+1+n, len(data))]...)
			i += n
		}
	}
	return out
}

// feedsMatch feeds stream to the run-copying and the byte-at-a-time
// decoder in chunks of the given lengths (the rest in one last chunk) and
// fails unless they agree after every Feed: the same events and
// instructions, Errors, Pending and Snapshot. Before chunk restoreAt both
// decoders are snapshot and restored, into fresh decoders or, when dirty,
// into decoders left mid-frame by other input.
func feedsMatch(t *testing.T, stream []byte, chunks []int, restoreAt int, dirty bool) {
	t.Helper()
	var run Decoder
	ref := &bytewiseDecoder{}
	for i, pos := 0, 0; pos < len(stream); i++ {
		n := len(stream) - pos
		if i < len(chunks) {
			n = min(n, chunks[i])
		}
		chunk := stream[pos : pos+n]
		pos += n
		if i == restoreAt {
			var into Decoder
			intoRef := &bytewiseDecoder{}
			if dirty {
				partial := seedFrames(t)[3][:20]
				into.Feed(partial)
				intoRef.Feed(partial)
			}
			into.Restore(run.Snapshot())
			intoRef.Restore(ref.Snapshot())
			run, ref = into, intoRef
		}
		evs, ins := run.Feed(chunk)
		wevs, wins := ref.Feed(chunk)
		if len(evs) != len(wevs) || len(ins) != len(wins) {
			t.Fatalf("feed %d: %d events, %d instructions; bytewise %d, %d", i, len(evs), len(ins), len(wevs), len(wins))
		}
		for j := range evs {
			if evs[j] != wevs[j] {
				t.Fatalf("feed %d: event %d = %+v, bytewise %+v", i, j, evs[j], wevs[j])
			}
		}
		for j := range ins {
			if ins[j] != wins[j] {
				t.Fatalf("feed %d: instruction %d = %+v, bytewise %+v", i, j, ins[j], wins[j])
			}
		}
		if run.Errors != ref.Errors || run.Pending() != ref.Pending() {
			t.Fatalf("feed %d: errors %d pending %d, bytewise %d, %d", i, run.Errors, run.Pending(), ref.Errors, ref.Pending())
		}
		if a, b := run.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("feed %d: snapshot %+v, bytewise %+v", i, a, b)
		}
	}
}

// TestFeedMatchesBytewiseAtEveryCut: every frame kind of feedStream, with
// one byte of noise and a noise run between frames, split at every byte
// position, with a snapshot and restore (fresh and dirty) at the cut.
func TestFeedMatchesBytewiseAtEveryCut(t *testing.T) {
	stream := feedStream(t, []byte{0, 0xC0, 0x11, 1, 2, 0xC3, 0, 0x7D, 0x7D, 0x7E, 3, 4, 5, 6, 0xC2, 9, 9, 9, 0})
	for cut := range len(stream) + 1 {
		for _, dirty := range []bool{false, true} {
			feedsMatch(t, stream, []int{cut}, 1, dirty)
			feedsMatch(t, stream, []int{cut, 1, 1, 2, 3, 5, 8}, 2, dirty)
		}
	}
}

// TestFeedMatchesBytewiseFromCraftedState: a checkpoint is outside input,
// so a restored body may be one no stream leaves behind — a complete
// frame, an overrun one, an oversized length with more bytes after it.
// The run-copying decoder still agrees with the byte-at-a-time one.
func TestFeedMatchesBytewiseFromCraftedState(t *testing.T) {
	var body Decoder
	body.Feed(seedFrames(t)[0][:30]) // SOF and 29 body bytes, none stuffed
	st := body.Snapshot()
	frame := seedFrames(t)[0][1:]
	oversized := append([]byte(nil), frame[:20]...)
	oversized[12] = 0x04
	for _, b := range [][]byte{frame[:len(frame)-1], frame, append(append([]byte(nil), frame...), 9, 9), oversized} {
		st.Body = b
		for _, tail := range [][]byte{{1}, {1, 2, 3}, seedFrames(t)[1]} {
			var run Decoder
			ref := &bytewiseDecoder{}
			run.Restore(st)
			ref.Restore(st)
			evs, _ := run.Feed(tail)
			wevs, _ := ref.Feed(tail)
			if len(evs) != len(wevs) || run.Errors != ref.Errors || !reflect.DeepEqual(run.Snapshot(), ref.Snapshot()) {
				t.Fatalf("body %x + %x: %d events, %+v; bytewise %d, %+v", b, tail, len(evs), run.Snapshot(), len(wevs), ref.Snapshot())
			}
		}
	}
}

// FuzzFeedMatchesBytewise: over arbitrary bytes, and over valid frames
// mixed with noise, split at fuzz-chosen Feed boundaries, the run-copying
// decoder agrees with the byte-at-a-time one after every Feed (see
// feedsMatch), with a snapshot and restore at one cut.
func FuzzFeedMatchesBytewise(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed, []byte{3, 5, 0, 7}, false)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 0xC3, 0x7E, 0x7D, 0x00, 0x01}, []byte{1, 9, 2, 40}, true)
	f.Add([]byte{4, 4, 0xC1, 0x7D, 2, 1}, []byte{13, 1, 1, 1, 200}, true)
	f.Add([]byte{5, 0xC0, 0x55, 5, 0}, []byte{16, 14, 2, 0, 1}, true)
	f.Add([]byte{0x7E, 0x01, 0x02, 0x7D, 0x7E, 0x7D}, []byte{0, 1, 2}, false)
	f.Fuzz(func(t *testing.T, data, cuts []byte, frames bool) {
		stream := data
		if frames {
			stream = feedStream(t, data)
		}
		chunks := make([]int, len(cuts))
		for i, c := range cuts {
			chunks[i] = int(c)
		}
		restoreAt := -1
		if len(cuts) > 0 {
			restoreAt = int(cuts[0]) % (len(cuts) + 1)
		}
		feedsMatch(t, stream, chunks, restoreAt, len(cuts) > 1 && cuts[1]%2 == 1)
	})
}
