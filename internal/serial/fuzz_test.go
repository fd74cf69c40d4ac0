package serial

// Fuzz hardening for the byte-stream model. The seed corpus runs as part
// of the normal test suite; the properties pin the frame-atomic TX
// contract: bytes are delivered exactly once, in order, and a saturated
// FIFO loses whole frames — never a torn prefix.

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzLinkDeliveryOrder: arbitrary frame sizes and ragged Advance steps
// never reorder, duplicate, drop or invent bytes (within FIFO capacity),
// and the line statistics stay consistent.
func FuzzLinkDeliveryOrder(f *testing.F) {
	f.Add([]byte{3, 1, 200}, uint16(7))
	f.Add([]byte{0, 0, 0}, uint16(0))
	f.Add(bytes.Repeat([]byte{255}, 20), uint16(997))
	f.Add([]byte{1}, uint16(65535))
	f.Fuzz(func(t *testing.T, sizes []byte, stepSeed uint16) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		l := MustLink(2_000_000)
		a, b := l.PortA(), l.PortB()
		var want []byte
		var sent, dropped uint64
		next := byte(1)
		for _, sz := range sizes {
			frame := bytes.Repeat([]byte{next}, int(sz))
			next++
			before := a.Stats().FramesDropped
			a.Send(frame)
			sent += uint64(len(frame))
			if a.Stats().FramesDropped > before {
				dropped += uint64(len(frame))
				// Frame-atomic: a rejected frame contributes nothing.
				continue
			}
			want = append(want, frame...)
		}
		step := uint64(stepSeed%41+1) * 500
		var got []byte
		deadline := uint64(len(want)+2) * l.ByteTimeNs()
		for now := uint64(0); now <= deadline; now += step {
			l.Advance(now)
			got = append(got, b.Recv()...)
		}
		l.Advance(1 << 62)
		got = append(got, b.Recv()...)
		if !bytes.Equal(got, want) {
			t.Fatalf("delivered %d bytes, want %d (first divergence at %d)",
				len(got), len(want), firstDiff(got, want))
		}
		st := a.Stats()
		if st.Bytes+st.Dropped != sent {
			t.Fatalf("stats leak bytes: delivered %d + dropped %d != sent %d", st.Bytes, st.Dropped, sent)
		}
		if st.Dropped != dropped {
			t.Fatalf("dropped = %d, observed %d", st.Dropped, dropped)
		}
	})
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// FuzzLinkNoTornFrames: under heavy saturation the receiver sees only
// whole frames — every maximal run of a frame's fill byte has exactly
// the frame's length.
func FuzzLinkNoTornFrames(f *testing.F) {
	f.Add(uint8(100), uint8(60))
	f.Add(uint8(255), uint8(255))
	f.Add(uint8(1), uint8(200))
	f.Fuzz(func(t *testing.T, size, count uint8) {
		if size == 0 {
			t.Skip()
		}
		l := MustLink(9600)
		a := l.PortA()
		for i := 0; i < int(count); i++ {
			// Alternate fill bytes so runs delimit frames.
			a.Send(bytes.Repeat([]byte{byte(i%2 + 1)}, int(size)))
		}
		l.Advance(1 << 62)
		got := l.PortB().Recv()
		if len(got)%int(size) != 0 {
			t.Fatalf("delivered %d bytes is not a multiple of the %d-byte frame", len(got), size)
		}
		for i := 0; i < len(got); i += int(size) {
			frame := got[i : i+int(size)]
			for _, bb := range frame {
				if bb != frame[0] {
					t.Fatalf("torn frame at offset %d: %v", i, frame)
				}
			}
		}
	})
}

// FuzzLinkMatchesReference decodes the fuzz bytes into Send, Advance,
// Recv, Snapshot and Restore operations on both ports, runs them on the
// link and on the per-byte reference (ref_test.go), and compares every
// observable after each operation. Advance steps go forward by any span,
// backwards (a no-op, except that a step "back" from a clock near zero
// wraps it to near 2^64) and to the very end of the clock, where a
// frame's pacing wraps; the line rate may make a byte take no time at all.
func FuzzLinkMatchesReference(f *testing.F) {
	f.Add(uint8(2), []byte{0, 40, 0, 1, 20, 3, 2, 1, 0, 0, 4, 0, 5, 0})
	f.Add(uint8(2), []byte{2, 200, 0, 0, 255, 15, 0, 255, 15, 3, 0, 1, 100, 20, 6, 0, 7, 0})
	f.Add(uint8(1), []byte{2, 0, 0, 30, 0, 1, 0, 0, 3, 1, 4, 0, 0, 9, 1})
	f.Add(uint8(0), []byte{0, 10, 0, 0, 10, 0, 6, 0, 1, 50, 8, 5, 0, 7, 0, 1, 255, 40})
	f.Add(uint8(4), []byte{0, 12, 0, 2, 3, 0, 0, 5, 0, 1, 1, 0, 3, 0})
	f.Fuzz(fuzzBody)
}

var bauds = []int{9600, 115200, 2_000_000, 2_000_000_000, 20_000_000_000}

func fuzzBody(t *testing.T, baudSel uint8, ops []byte) {
	if len(ops) > 600 {
		ops = ops[:600]
	}
	baud := bauds[int(baudSel)%len(bauds)]
	l, ref := MustLink(baud), newRefLink(baud)
	ports := [2]*Port{l.PortA(), l.PortB()}
	var snaps []LinkState
	next := func(i *int) uint64 {
		if *i >= len(ops) {
			return 0
		}
		*i++
		return uint64(ops[*i-1])
	}
	for i := 0; i < len(ops); {
		op := next(&i)
		d := int(op>>4) & 1
		switch op % 8 {
		case 0, 1: // send a frame of up to 4095 bytes
			n := int(next(&i) | next(&i)&0x0f<<8)
			frame := make([]byte, n)
			for k := range frame {
				frame[k] = byte(k + int(op))
			}
			ports[d].Send(frame)
			ref.send(d, frame)
		case 2: // advance forward by any span
			now := l.Now() + next(&i)<<(next(&i)%48)
			l.Advance(now)
			ref.Advance(now)
		case 3: // step backwards (wraps from a clock near zero)
			now := l.Now() - next(&i)
			l.Advance(now)
			ref.Advance(now)
		case 4: // jump to the end of the clock
			now := math.MaxUint64 - next(&i)*l.ByteTimeNs()
			l.Advance(now)
			ref.Advance(now)
		case 5:
			if got, want := ports[1-d].Recv(), ref.recv(d); !bytes.Equal(got, want) {
				t.Fatalf("op %d: Recv %d bytes, reference %d (first divergence at %d)",
					i, len(got), len(want), firstDiff(got, want))
			}
		case 6:
			snaps = append(snaps, l.Snapshot())
		case 7:
			if len(snaps) == 0 {
				continue
			}
			st := snaps[int(next(&i))%len(snaps)]
			if err := l.Restore(st); err != nil {
				t.Fatal(err)
			}
			ref.restore(st)
		}
		if got, want := l.Snapshot(), ref.snapshot(baud); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: snapshot diverges from the reference:\n got  %+v\n want %+v", i, got, want)
		}
		if msg := diffRef(l, ref); msg != "" {
			t.Fatalf("op %d: %s", i, msg)
		}
	}
}
