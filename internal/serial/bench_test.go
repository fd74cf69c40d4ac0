package serial

import (
	"bytes"
	"testing"
)

// BenchmarkSerialLink times one frame across a warm 2 Mbaud link: the
// target sends a 40-byte event frame, the line delivers it in two
// Advance steps and the host drains it after each — the per-frame UART
// cost of an instrumented board streaming to the debugger.
func BenchmarkSerialLink(b *testing.B) {
	l := MustLink(2_000_000)
	a, h := l.PortA(), l.PortB()
	frame := bytes.Repeat([]byte{0x5A}, 40)
	n := 0
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for b.Loop() {
		a.Send(frame)
		l.Advance(l.Now() + 25*l.ByteTimeNs())
		n += len(h.Recv())
		l.Advance(a.BusyUntil())
		n += len(h.Recv())
	}
	if n != b.N*len(frame) {
		b.Fatalf("delivered %d of %d bytes", n, b.N*len(frame))
	}
}
