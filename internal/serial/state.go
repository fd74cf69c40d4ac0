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
// storage with the live link.
func (l *Link) Snapshot() LinkState {
	st := LinkState{Baud: l.baud, Now: l.now}
	for d := range l.dirs {
		dir := &l.dirs[d]
		ds := DirectionState{LineFree: dir.lineFree, Stats: dir.stats}
		if pend := dir.pending(); len(pend) > 0 {
			ds.Queue = make([]InflightState, len(pend))
			for i, q := range pend {
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

// Restore rewinds the link to a previously captured state. The link must
// have been created at the same baud rate (the byte time is derived from
// it).
func (l *Link) Restore(st LinkState) error {
	if st.Baud != l.baud {
		return fmt.Errorf("serial: restore of %d-baud state onto %d-baud link", st.Baud, l.baud)
	}
	l.now = st.Now
	for d := range l.dirs {
		dir := &l.dirs[d]
		ds := st.Dirs[d]
		dir.queue, dir.head = dir.queue[:0], 0
		for _, q := range ds.Queue {
			dir.queue = append(dir.queue, inflight{b: q.B, arrival: q.Arrival})
		}
		dir.rx = append(dir.rx[:0], ds.Rx...)
		dir.lineFree = ds.LineFree
		dir.stats = ds.Stats
	}
	return nil
}
