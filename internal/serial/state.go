package serial

import "fmt"

// Explicit-state forms of the UART line: the in-flight byte queues (with
// their arrival instants), the received-but-undrained bytes, the per-
// direction line-busy horizon and statistics, and the link clock. A
// checkpoint taken while frames are mid-flight restores with the same
// bytes landing at the same virtual instants.

// InflightState is one byte on the wire with its delivery instant.
type InflightState struct {
	B       byte   `json:"b"`
	Arrival uint64 `json:"at"`
}

// DirectionState is the portable form of one transmit direction.
type DirectionState struct {
	Queue    []InflightState `json:"queue,omitempty"`
	Rx       []byte          `json:"rx,omitempty"`
	LineFree uint64          `json:"lineFree"`
	Stats    Stats           `json:"stats"`
}

// LinkState is the complete state of a Link. Baud is recorded so a restore
// onto a differently-configured link is rejected instead of silently
// re-timing the bytes in flight.
type LinkState struct {
	Baud int               `json:"baud"`
	Now  uint64            `json:"now"`
	Dirs [2]DirectionState `json:"dirs"`
}

// Snapshot captures the link's complete state; the result shares no
// storage with the live link. The runs in flight are written out byte by
// byte, each with its own arrival instant.
func (l *Link) Snapshot() LinkState {
	st := LinkState{Baud: l.baud, Now: l.now}
	for d := range l.dirs {
		dir := &l.dirs[d]
		ds := DirectionState{LineFree: dir.lineFree, Stats: dir.stats}
		if n := dir.inflight(); n > 0 {
			ds.Queue = l.appendPending(make([]InflightState, 0, n), d)
		}
		if len(dir.rx) > 0 {
			ds.Rx = append([]byte(nil), dir.rx...)
		}
		st.Dirs[d] = ds
	}
	return st
}

// appendPending appends direction d's in-flight bytes, oldest first, each
// with its arrival instant.
func (l *Link) appendPending(dst []InflightState, d int) []InflightState {
	dir := &l.dirs[d]
	i := dir.bhead
	for _, r := range dir.runs[dir.rhead:] {
		for k := range r.n {
			dst = append(dst, InflightState{B: dir.buf[i], Arrival: r.first + uint64(k)*l.byteTimeNs})
			i++
		}
	}
	return dst
}

// Restore rewinds the link to a previously captured state. The link must
// have been created at the same baud rate (the byte time is derived from
// it). Consecutive queue entries whose arrivals lie exactly one byte time
// apart join one run; any other entry starts a run of its own, so every
// state — whatever wrote it — restores to the same per-byte arrivals.
func (l *Link) Restore(st LinkState) error {
	if st.Baud != l.baud {
		return fmt.Errorf("serial: restore of %d-baud state onto %d-baud link", st.Baud, l.baud)
	}
	l.now = st.Now
	for d := range l.dirs {
		dir := &l.dirs[d]
		ds := st.Dirs[d]
		dir.buf, dir.bhead = dir.buf[:0], 0
		dir.runs, dir.rhead = dir.runs[:0], 0
		for _, q := range ds.Queue {
			dir.buf = append(dir.buf, q.B)
			dir.push(q.Arrival, 1, l.byteTimeNs)
		}
		dir.rx = append(dir.rx[:0], ds.Rx...)
		dir.lineFree = ds.LineFree
		dir.stats = ds.Stats
	}
	return nil
}
