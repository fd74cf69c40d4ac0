package serial

// Differential test of the run-length UART line against the original
// per-byte queue, which stored one arrival instant per byte, re-sliced its
// head away on every delivery and handed out a fresh receive buffer on
// every Recv. The reference is kept here verbatim in behaviour; the link
// must match it on every observable: delivered bytes, arrival instants
// (through Snapshot), Free, BusyUntil, Stats and Restore.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// inflight is one byte on the reference's wire.
type inflight struct {
	b       byte
	arrival uint64
}

// refLink is the original per-byte queue.
type refLink struct {
	byteTimeNs uint64
	now        uint64
	limit      int
	dirs       [2]refDirection
}

type refDirection struct {
	queue    []inflight
	rx       []byte
	lineFree uint64
	stats    Stats
}

func newRefLink(baud int) *refLink {
	return &refLink{byteTimeNs: uint64(bitsPerByte * 1_000_000_000 / baud), limit: 4096}
}

func (l *refLink) Advance(now uint64) {
	if now < l.now {
		return
	}
	l.now = now
	for d := range l.dirs {
		dir := &l.dirs[d]
		i := 0
		for ; i < len(dir.queue); i++ {
			if dir.queue[i].arrival > now {
				break
			}
			dir.rx = append(dir.rx, dir.queue[i].b)
			dir.stats.Bytes++
		}
		dir.queue = dir.queue[i:]
	}
}

func (l *refLink) send(d int, data []byte) {
	if len(data) == 0 {
		return
	}
	dir := &l.dirs[d]
	if len(dir.queue)+len(data) > l.limit {
		dir.stats.Dropped += uint64(len(data))
		dir.stats.Overruns++
		dir.stats.FramesDropped++
		return
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

func (l *refLink) recv(d int) []byte {
	dir := &l.dirs[d]
	out := dir.rx
	dir.rx = nil
	return out
}

func (l *refLink) free(d int) int { return l.limit - len(l.dirs[d].queue) }

func (l *refLink) snapshot(baud int) LinkState {
	st := LinkState{Baud: baud, Now: l.now}
	for d := range l.dirs {
		dir := &l.dirs[d]
		ds := DirectionState{LineFree: dir.lineFree, Stats: dir.stats}
		if len(dir.queue) > 0 {
			ds.Queue = make([]InflightState, len(dir.queue))
			for i, q := range dir.queue {
				ds.Queue[i] = InflightState{B: q.b, Arrival: q.arrival}
			}
		}
		if len(dir.rx) > 0 {
			ds.Rx = append([]byte(nil), dir.rx...)
		}
		st.Dirs[d] = ds
	}
	return st
}

func (l *refLink) restore(st LinkState) {
	l.now = st.Now
	for d := range l.dirs {
		dir := &l.dirs[d]
		ds := st.Dirs[d]
		dir.queue = dir.queue[:0]
		for _, q := range ds.Queue {
			dir.queue = append(dir.queue, inflight{b: q.B, arrival: q.Arrival})
		}
		dir.rx = append(dir.rx[:0], ds.Rx...)
		dir.lineFree = ds.LineFree
		dir.stats = ds.Stats
	}
}

// TestLinkMatchesReference drives the link and the reference through the
// same random Send/Advance/Recv/Snapshot/Restore sequences — frames large
// enough to fill the 4096-byte FIFO and drop whole frames, Advance steps
// that deliver nothing, part of a frame or several frames, and restores to
// earlier snapshots — and compares every observable after every step.
func TestLinkMatchesReference(t *testing.T) {
	const baud = 2_000_000
	drops := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, ref := MustLink(baud), newRefLink(baud)
		ports := [2]*Port{l.PortA(), l.PortB()}
		var snaps []LinkState
		// held is the last Recv result per port: the link may reuse its
		// array only after the next Recv on the same port.
		var held, heldCopy [2][]byte
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				d := rng.Intn(2)
				n := rng.Intn(700)
				if rng.Intn(8) == 0 {
					n = rng.Intn(4)
				}
				frame := make([]byte, n)
				rng.Read(frame)
				before := ports[d].Stats().FramesDropped
				ports[d].Send(frame)
				ref.send(d, frame)
				if ports[d].Stats().FramesDropped > before {
					drops++
				}
			case op < 7:
				span := int64(60 * l.ByteTimeNs())
				if rng.Intn(20) == 0 {
					span *= 130 // drain most of a full FIFO
				}
				now := l.Now() + uint64(rng.Int63n(span))
				if rng.Intn(10) == 0 {
					now = l.Now() - uint64(rng.Intn(1000)) // backwards: no-op
				}
				l.Advance(now)
				ref.Advance(now)
			case op < 9:
				d := rng.Intn(2)
				got, want := ports[1-d].Recv(), ref.recv(d)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: Recv %d bytes, reference %d (first divergence at %d)",
						seed, step, len(got), len(want), firstDiff(got, want))
				}
				p := 1 - d
				if !bytes.Equal(held[p], heldCopy[p]) {
					t.Fatalf("seed %d step %d: a Recv result changed before the next Recv", seed, step)
				}
				held[p], heldCopy[p] = got, append([]byte(nil), got...)
			default:
				if len(snaps) > 0 && rng.Intn(2) == 0 {
					st := snaps[rng.Intn(len(snaps))]
					if err := l.Restore(st); err != nil {
						t.Fatal(err)
					}
					ref.restore(st)
				} else {
					snaps = append(snaps, l.Snapshot())
				}
			}
			if step%25 == 0 {
				if got, want := l.Snapshot(), ref.snapshot(baud); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: snapshot diverges from the reference:\n got  %+v\n want %+v", seed, step, got, want)
				}
			}
			if msg := diffRef(l, ref); msg != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, msg)
			}
		}
	}
	if drops < 20 {
		t.Fatalf("only %d frames dropped on a full FIFO — degenerate sequences", drops)
	}
}

// diffRef compares the link's in-flight bytes with their arrival instants,
// undrained receive bytes, Free, BusyUntil and Stats in both directions
// with the reference's, and describes the first difference ("" if none).
func diffRef(l *Link, ref *refLink) string {
	for d, p := range [2]*Port{l.PortA(), l.PortB()} {
		got, want := l.appendPending(nil, d), ref.dirs[d].queue
		if len(got) != len(want) {
			return fmt.Sprintf("dir %d: %d bytes in flight, reference %d", d, len(got), len(want))
		}
		for i, q := range want {
			if got[i] != (InflightState{B: q.b, Arrival: q.arrival}) {
				return fmt.Sprintf("dir %d: in-flight byte %d is %+v, reference %+v", d, i, got[i], q)
			}
		}
		if !bytes.Equal(l.dirs[d].rx, ref.dirs[d].rx) {
			return fmt.Sprintf("dir %d: undrained bytes diverge", d)
		}
		if p.Free() != ref.free(d) || p.BusyUntil() != ref.dirs[d].lineFree || p.Stats() != ref.dirs[d].stats {
			return fmt.Sprintf("dir %d: Free %d/%d BusyUntil %d/%d Stats %+v/%+v", d,
				p.Free(), ref.free(d), p.BusyUntil(), ref.dirs[d].lineFree, p.Stats(), ref.dirs[d].stats)
		}
	}
	return ""
}

// TestLinkSteadyStateAllocs: on a warm link, sending a frame, delivering
// it and draining it allocate nothing.
func TestLinkSteadyStateAllocs(t *testing.T) {
	l := MustLink(2_000_000)
	a, b := l.PortA(), l.PortB()
	frame := bytes.Repeat([]byte{0x5A}, 48)
	cycle := func() {
		a.Send(frame)
		// Deliver two thirds of the frame, then the rest, so the queue
		// head moves mid-frame between sends.
		l.Advance(l.Now() + 32*l.ByteTimeNs())
		_ = b.Recv()
		l.Advance(a.BusyUntil())
		_ = b.Recv()
	}
	for range 4 {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state Send+Advance+Recv: %v allocs, want 0", n)
	}
}
