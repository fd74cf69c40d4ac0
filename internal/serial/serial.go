// Package serial models the RS-232 link used by the paper's prototype as
// its *active* command interface: the instrumented code on the target
// writes command frames into its UART, which the Graphical Debugger Model
// host reads at the other end.
//
// The model is a full-duplex 8N1 UART pair driven by virtual time: each
// byte occupies the line for 10 bit times (start + 8 data + stop) at the
// configured baud rate, and consecutive bytes queue behind each other.
// This pacing is what makes the paper's overhead argument measurable —
// an instrumented target both spends CPU cycles building frames and is
// throttled by the line rate, whereas the passive JTAG solution touches
// neither (see internal/jtag).
package serial

import "fmt"

// bitsPerByte is start + 8 data + stop for the 8N1 format.
const bitsPerByte = 10

// Stats accumulates per-direction line statistics.
type Stats struct {
	Bytes    uint64 // bytes fully delivered
	BusyNs   uint64 // total line-busy time
	Dropped  uint64 // bytes dropped on overflow (whole rejected sends)
	Overruns uint64 // occasions the sender found the queue full

	// FramesDropped counts whole Send calls rejected by the frame-atomic
	// enqueue policy: a frame either fits in the FIFO entirely or is
	// dropped entirely, so the wire never carries a torn frame. The
	// target reports the counter host-side via an EvOverrun event,
	// making E7b's delivered/emitted gap observable on the wire.
	FramesDropped uint64
}

// Link is a point-to-point full-duplex serial line between port A (target)
// and port B (host).
type Link struct {
	baud       int
	byteTimeNs uint64
	now        uint64
	limit      int // max in-flight bytes per direction

	dirs [2]direction
}

type inflight struct {
	b       byte
	arrival uint64
}

// direction is one transmit direction. The bytes in flight are
// queue[head:]; delivered bytes ahead of head are reclaimed in place when
// the queue would otherwise grow, so a warm link reuses one backing array.
// rx collects delivered bytes; spare is the other half of its double
// buffer, the slice the previous Recv handed out.
type direction struct {
	queue    []inflight
	head     int
	rx       []byte
	spare    []byte
	lineFree uint64 // time the line becomes free for the next byte
	stats    Stats
}

// pending returns the bytes still on the wire, oldest first.
func (dir *direction) pending() []inflight { return dir.queue[dir.head:] }

// NewLink creates a link at the given baud rate (e.g. 115200). The
// in-flight queue per direction holds up to 4096 bytes; senders beyond
// that drop bytes and record overruns, mimicking a saturated UART FIFO.
func NewLink(baud int) (*Link, error) {
	if baud <= 0 {
		return nil, fmt.Errorf("serial: invalid baud %d", baud)
	}
	return &Link{
		baud:       baud,
		byteTimeNs: uint64(bitsPerByte * 1_000_000_000 / baud),
		limit:      4096,
	}, nil
}

// MustLink is NewLink that panics; for fixtures.
func MustLink(baud int) *Link {
	l, err := NewLink(baud)
	if err != nil {
		panic(err)
	}
	return l
}

// Baud returns the configured line rate.
func (l *Link) Baud() int { return l.baud }

// ByteTimeNs returns the virtual time one byte occupies the line.
func (l *Link) ByteTimeNs() uint64 { return l.byteTimeNs }

// Now returns the link's current virtual time.
func (l *Link) Now() uint64 { return l.now }

// Advance moves virtual time forward and delivers bytes whose transmission
// completes by then. Time never moves backwards.
func (l *Link) Advance(now uint64) {
	if now < l.now {
		return
	}
	l.now = now
	for d := range l.dirs {
		dir := &l.dirs[d]
		i := dir.head
		for ; i < len(dir.queue) && dir.queue[i].arrival <= now; i++ {
			dir.rx = append(dir.rx, dir.queue[i].b)
		}
		dir.stats.Bytes += uint64(i - dir.head)
		if i == len(dir.queue) {
			dir.queue, i = dir.queue[:0], 0
		}
		dir.head = i
	}
}

// send enqueues data in direction d at the current time. Enqueue is
// frame-atomic: one Send call is one frame, and a frame that does not fit
// in the remaining FIFO space is dropped whole (counted in Dropped,
// Overruns and FramesDropped) rather than torn mid-frame. A saturated
// link therefore loses complete frames — observable and countable — never
// a frame prefix that would poison the decoder's CRC.
func (l *Link) send(d int, data []byte) {
	if len(data) == 0 {
		return
	}
	dir := &l.dirs[d]
	if len(dir.queue)-dir.head+len(data) > l.limit {
		dir.stats.Dropped += uint64(len(data))
		dir.stats.Overruns++
		dir.stats.FramesDropped++
		return
	}
	if dir.head > 0 && len(dir.queue)+len(data) > cap(dir.queue) {
		// Reclaim the delivered prefix instead of growing the array.
		dir.queue = dir.queue[:copy(dir.queue, dir.queue[dir.head:])]
		dir.head = 0
	}
	for _, b := range data {
		start := dir.lineFree
		if start < l.now {
			start = l.now
		}
		arrival := start + l.byteTimeNs
		dir.lineFree = arrival
		dir.stats.BusyNs += l.byteTimeNs
		dir.queue = append(dir.queue, inflight{b: b, arrival: arrival})
	}
}

// recv drains the received bytes for direction d. The returned slice is
// the filled half of the double buffer; the other half collects the next
// deliveries, so the result stays intact until the following recv.
func (l *Link) recv(d int) []byte {
	dir := &l.dirs[d]
	out := dir.rx
	dir.rx, dir.spare = dir.spare[:0], out
	return out
}

// busyUntil reports when direction d's line is free.
func (l *Link) busyUntil(d int) uint64 { return l.dirs[d].lineFree }

// free reports the remaining FIFO space in direction d.
func (l *Link) free(d int) int { return l.limit - len(l.dirs[d].pending()) }

// Port is one endpoint of the link.
type Port struct {
	l   *Link
	out int // direction index this port transmits on
}

// PortA returns the target-side endpoint (transmits on direction 0).
func (l *Link) PortA() *Port { return &Port{l: l, out: 0} }

// PortB returns the host-side endpoint (transmits on direction 1).
func (l *Link) PortB() *Port { return &Port{l: l, out: 1} }

// Send queues data for transmission at the link's current virtual time.
func (p *Port) Send(data []byte) { p.l.send(p.out, data) }

// Recv returns the bytes that have fully arrived at this port since the
// previous Recv. The result aliases a buffer the link reuses: it is valid
// until the next Recv on this port, so a caller that keeps the bytes
// longer must copy them.
func (p *Port) Recv() []byte { return p.l.recv(1 - p.out) }

// BusyUntil reports when this port's transmit line becomes free; the
// instrumented target uses it to account for stalls when its UART FIFO
// would block.
func (p *Port) BusyUntil() uint64 { return p.l.busyUntil(p.out) }

// Stats returns this port's transmit-direction statistics.
func (p *Port) Stats() Stats { return p.l.dirs[p.out].stats }

// Free reports the remaining transmit FIFO space in bytes; the firmware
// uses it to hold back its drop-counter report until it can actually fit
// on the wire.
func (p *Port) Free() int { return p.l.free(p.out) }
