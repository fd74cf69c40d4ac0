package protocol

// Fuzz hardening for the frame decoder. The seed corpus runs as part of
// the normal test suite (`go test` executes every f.Add case), so CI
// exercises truncated frames, corrupted length bytes and interleaved
// garbage on every run; `go test -fuzz=FuzzX ./internal/protocol` digs
// deeper locally.

import (
	"bytes"
	"testing"
)

// seedFrames returns a mix of valid wire frames.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	ev1, err := EncodeEvent(Event{Type: EvStateEnter, Seq: 7, Time: 12345, Source: "heater.thermostat", Arg1: "Heating"})
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := EncodeEvent(Event{Type: EvBreak, Seq: 8, Time: 99, Source: "bp", Arg1: "sym", Arg2: "1", Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose body contains SOF and ESC bytes (stuffing stress).
	ev3, err := EncodeEvent(Event{Type: EvSignal, Seq: 0x7E7D, Time: 0x7E7D7E7D7E7D7E7D, Source: "\x7e\x7d", Value: -1})
	if err != nil {
		t.Fatal(err)
	}
	in1, err := EncodeInstruction(Instruction{Type: InSetBreak, Seq: 3, Source: "bp", Arg1: "x > 1", Value: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{ev1, ev2, ev3, in1}
}

// decoderSeeds is the seed corpus of FuzzDecoderNeverPanics: valid
// frames, each also truncated and behind leading garbage, a corrupted
// length, a run of SOFs and a dangling escape.
func decoderSeeds(t testing.TB) [][]byte {
	t.Helper()
	frames := seedFrames(t)
	var seeds [][]byte
	for _, fr := range frames {
		seeds = append(seeds,
			fr,
			fr[:len(fr)/2],                 // truncated mid-frame
			append([]byte{0, 1, 2}, fr...), // leading garbage
		)
	}
	corrupt := append([]byte(nil), frames[0]...)
	corrupt[15] ^= 0xFF // corrupted length region
	return append(seeds, corrupt, bytes.Repeat([]byte{SOF}, 300), []byte{SOF, 0x7D})
}

// FuzzDecoderNeverPanics: any byte stream — truncated frames, corrupted
// lengths, pure garbage — must decode without panicking, and feeding the
// same stream byte-at-a-time must yield exactly the same messages as one
// big Feed (the decoder is a pure streaming state machine).
func FuzzDecoderNeverPanics(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var whole Decoder
		evs, ins := whole.Feed(data)
		var stream Decoder
		var evs2 []Event
		var ins2 []Instruction
		for _, b := range data {
			e, i := stream.Feed([]byte{b})
			evs2 = append(evs2, e...)
			ins2 = append(ins2, i...)
		}
		if len(evs) != len(evs2) || len(ins) != len(ins2) {
			t.Fatalf("chunking changed results: %d/%d events, %d/%d instructions",
				len(evs), len(evs2), len(ins), len(ins2))
		}
		for i := range evs {
			if evs[i] != evs2[i] {
				t.Fatalf("event %d differs: %+v vs %+v", i, evs[i], evs2[i])
			}
		}
		for i := range ins {
			if ins[i] != ins2[i] {
				t.Fatalf("instruction %d differs: %+v vs %+v", i, ins[i], ins2[i])
			}
		}
		if whole.Errors != stream.Errors {
			t.Fatalf("error counts diverge: %d vs %d", whole.Errors, stream.Errors)
		}
	})
}

// FuzzDecoderResyncAfterGarbage: a valid frame is always delivered intact
// after an arbitrary garbage prefix — the raw SOF resynchronises the
// decoder no matter what state the noise left it in.
func FuzzDecoderResyncAfterGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xFF, 0x7D})      // trailing ESC in the noise
	f.Add([]byte{SOF, 0x01, 0x02})       // noise that looks like a frame start
	f.Add(bytes.Repeat([]byte{SOF}, 17)) // SOF runs
	f.Add(seedFrames(f)[0][:9])          // a truncated real frame
	want := Event{Type: EvTransition, Seq: 42, Time: 777, Source: "m", Arg1: "A", Arg2: "B", Value: 3.5}
	wire, err := EncodeEvent(want)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, prefix []byte) {
		var d Decoder
		d.Feed(prefix)
		evs, _ := d.Feed(wire)
		if len(evs) == 0 {
			t.Fatalf("frame lost after %d bytes of garbage", len(prefix))
		}
		got := evs[len(evs)-1]
		if got != want {
			t.Fatalf("frame damaged by garbage prefix: %+v", got)
		}
	})
}

// FuzzDecoderRejectsCorruption: flipping any single byte of a valid frame
// must never mis-deliver a message — the CRC (or the stuffing layer)
// catches every single-byte corruption, and the decoder just counts an
// error.
func FuzzDecoderRejectsCorruption(f *testing.F) {
	wire, err := EncodeEvent(Event{Type: EvSignal, Seq: 9, Time: 5555, Source: "heater.power", Value: 100})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < len(wire); i += 7 {
		f.Add(i, byte(0xFF))
	}
	f.Add(0, byte(0x01))
	f.Add(len(wire)-1, byte(0x80))
	f.Fuzz(func(t *testing.T, pos int, mask byte) {
		if pos < 0 || pos >= len(wire) || mask == 0 {
			t.Skip()
		}
		data := append([]byte(nil), wire...)
		data[pos] ^= mask
		var d Decoder
		evs, ins := d.Feed(data)
		if len(ins) != 0 {
			t.Fatalf("corrupted event decoded as instruction: %+v", ins)
		}
		if len(evs) != 0 {
			t.Fatalf("single-byte corruption at %d (mask %#x) mis-delivered %+v", pos, mask, evs)
		}
	})
}
