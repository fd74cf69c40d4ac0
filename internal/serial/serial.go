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
//
// The timing is per byte but the bookkeeping is per run: a frame sent
// onto a line is one run of bytes spaced one byte time apart, so sending
// and delivering a frame costs a few arithmetic steps and one copy,
// whatever its length. Checkpoints still list every byte in flight with
// its own arrival instant (LinkState).
package serial

import (
	"fmt"
	"math/bits"
)

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
//
// The line carries runs, not bytes: each Send appends its bytes to a byte
// FIFO and one run record (or lengthens the last run, when the frame
// follows it back to back), and byte k of a run arrives at first + k·byte
// time, exactly when the per-byte 8N1 pacing would deliver it. Advance
// works out by division how much of the head run has landed and moves it
// to the receive buffer in one copy.
type Link struct {
	baud       int
	byteTimeNs uint64
	now        uint64
	limit      int // max in-flight bytes per direction

	dirs [2]direction
}

// run is a stretch of in-flight bytes that arrive one byte time apart:
// byte k of it lands at first + k·byteTimeNs. The arithmetic never wraps
// inside a run; a byte whose pacing would wrap the clock is a run of its
// own.
type run struct {
	first uint64 // arrival instant of the run's first byte
	n     int    // bytes in the run
}

// arrived returns how many of the run's bytes have landed by now.
func (r run) arrived(now, byteTimeNs uint64) int {
	if now < r.first {
		return 0
	}
	if byteTimeNs == 0 {
		return r.n
	}
	if k := (now-r.first)/byteTimeNs + 1; k < uint64(r.n) {
		return int(k)
	}
	return r.n
}

// direction is one transmit direction. The bytes in flight are buf[bhead:],
// split in order into the runs runs[rhead:]. Delivered bytes and runs ahead
// of the heads are reclaimed in place (see send and push), so a warm link
// reuses its backing arrays. rx collects delivered bytes; spare is the
// other half of its double buffer, the slice the previous Recv handed out.
type direction struct {
	buf      []byte
	bhead    int
	runs     []run
	rhead    int
	rx       []byte
	spare    []byte
	lineFree uint64 // time the line becomes free for the next byte
	stats    Stats
}

// inflight returns the number of bytes still on the wire.
func (dir *direction) inflight() int { return len(dir.buf) - dir.bhead }

// push appends a run of n bytes whose first byte arrives at first,
// extending the tail run when first lands exactly one byte time after the
// tail's last byte.
func (dir *direction) push(first uint64, n int, byteTimeNs uint64) {
	if dir.rhead < len(dir.runs) {
		tail := &dir.runs[len(dir.runs)-1]
		if last := tail.first + uint64(tail.n-1)*byteTimeNs; first >= last && first-last == byteTimeNs {
			tail.n += n
			return
		}
	}
	if dir.rhead > 0 && len(dir.runs) == cap(dir.runs) {
		dir.runs = dir.runs[:copy(dir.runs, dir.runs[dir.rhead:])]
		dir.rhead = 0
	}
	dir.runs = append(dir.runs, run{first: first, n: n})
}

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
// completes by then, oldest first, stopping at the first byte still on the
// wire. Time never moves backwards.
func (l *Link) Advance(now uint64) {
	if now < l.now {
		return
	}
	l.now = now
	for d := range l.dirs {
		dir := &l.dirs[d]
		if dir.rhead == len(dir.runs) {
			continue // nothing in flight
		}
		from := dir.bhead
		for dir.rhead < len(dir.runs) {
			r := &dir.runs[dir.rhead]
			k := r.arrived(now, l.byteTimeNs)
			dir.bhead += k
			if k < r.n {
				r.first += uint64(k) * l.byteTimeNs
				r.n -= k
				break
			}
			dir.rhead++
		}
		dir.rx = append(dir.rx, dir.buf[from:dir.bhead]...)
		dir.stats.Bytes += uint64(dir.bhead - from)
		if dir.rhead == len(dir.runs) {
			dir.buf, dir.bhead = dir.buf[:0], 0
			dir.runs, dir.rhead = dir.runs[:0], 0
		}
	}
}

// send enqueues data in direction d at the current time. Enqueue is
// frame-atomic: one Send call is one frame, and a frame that does not fit
// in the remaining FIFO space is dropped whole (counted in Dropped,
// Overruns and FramesDropped) rather than torn mid-frame. A saturated
// link therefore loses complete frames — observable and countable — never
// a frame prefix that would poison the decoder's CRC.
//
// Each byte starts when the line is free (or now, if later) and arrives
// one byte time after it starts, so a frame is one run. Should that
// arithmetic wrap the 64-bit clock, each byte is paced on its own, as the
// per-byte rule does it.
func (l *Link) send(d int, data []byte) {
	if len(data) == 0 {
		return
	}
	dir := &l.dirs[d]
	if dir.inflight()+len(data) > l.limit {
		dir.stats.Dropped += uint64(len(data))
		dir.stats.Overruns++
		dir.stats.FramesDropped++
		return
	}
	if len(dir.buf)+len(data) > cap(dir.buf) && dir.bhead >= dir.inflight() {
		// Reclaim the delivered prefix instead of growing the array. Only
		// a prefix at least as long as the bytes still in flight is worth
		// the copy; otherwise the array grows, so a saturated line does
		// not move its whole FIFO for every frame.
		dir.buf = dir.buf[:copy(dir.buf, dir.buf[dir.bhead:])]
		dir.bhead = 0
	}
	dir.buf = append(dir.buf, data...)
	bt := l.byteTimeNs
	start := max(dir.lineFree, l.now)
	if hi, span := bits.Mul64(uint64(len(data)), bt); hi == 0 {
		if end, carry := bits.Add64(start, span, 0); carry == 0 {
			dir.push(start+bt, len(data), bt)
			dir.lineFree = end
			dir.stats.BusyNs += span
			return
		}
	}
	for range data {
		arrival := max(dir.lineFree, l.now) + bt
		dir.lineFree = arrival
		dir.stats.BusyNs += bt
		dir.push(arrival, 1, bt)
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
func (l *Link) free(d int) int { return l.limit - l.dirs[d].inflight() }

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
