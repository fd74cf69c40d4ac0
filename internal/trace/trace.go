// Package trace records the model-level execution history of a debugging
// session. The paper motivates it directly: "model-level animation ...
// might occur in milliseconds. Therefore, GDM animation will trace
// model-level behavior and always make a record of the execution trace.
// The user can then monitor the application's behavior via a replay
// function associated with a timing diagram."
//
// Storage. A trace keeps its records in fixed chunks of 1024 that
// never move. The tail chunk grows by append until it is full and is then
// sealed: a sealed chunk is never written again, so an append copies at
// most the tail, never the history. A stored record holds no pointers:
// its three strings are uint32 ids into the trace's append-only symbol
// table, so the garbage collector never scans the history.
//
// Sharing. Clone shares every sealed chunk and the symbol table with the
// original and copies only the live tail records. The symbol table is
// copy-on-write: once shared, the first trace to intern a new name copies
// it. Cloning writes nothing of the original but the table's atomic
// "shared" mark, so several goroutines may clone one trace at once, as
// debuggers restoring one checkpoint do.
//
// Reuse. Reset empties a trace for a new run and keeps its tail capacity
// and its symbol table, so a trace that is reset and refilled within one
// chunk, as a campaign variant's is, stops allocating.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"strings"
	"sync/atomic"

	"repro/internal/graphics"
	"repro/internal/protocol"
)

// Record is one captured command with its target timestamp (inside the
// event) and the host receive time.
type Record struct {
	Seq    uint64         `json:"seq"`
	RecvNs uint64         `json:"recvNs"`
	Event  protocol.Event `json:"event"`
}

// chunkLen is the number of records in a sealed chunk.
const chunkLen = 1024

// rec is the stored form of a Record. It holds no pointers: src, a1 and
// a2 are symbol ids.
type rec struct {
	seq, recv, time uint64
	value           float64
	src, a1, a2     uint32
	evSeq           uint16
	typ             protocol.EventType
}

type chunk [chunkLen]rec

// symtab maps the strings of a trace's records to ids and back. Id 0 is
// the empty string. A table marked shared is never written again.
type symtab struct {
	names  []string
	ids    map[string]uint32
	shared atomic.Bool
}

// Trace is an append-only event log for one session.
type Trace struct {
	Program string

	sealed  []*chunk // full chunks, never written again
	tail    []rec    // the chunk being filled; owned by this trace alone
	syms    *symtab
	nextSeq uint64
	// emptyList keeps an empty record list decoded as [] (not null)
	// encoding the same way again.
	emptyList bool
}

// New creates an empty trace for a program.
func New(program string) *Trace { return &Trace{Program: program} }

// Append records an event received at recvNs host time.
func (t *Trace) Append(ev protocol.Event, recvNs uint64) Record {
	r := Record{Seq: t.nextSeq + 1, RecvNs: recvNs, Event: ev}
	t.push(r)
	return r
}

// push stores r, keeping its sequence number, and advances the sequence
// counter past it.
func (t *Trace) push(r Record) {
	if len(t.tail) == cap(t.tail) {
		t.grow()
	}
	ev := &r.Event
	t.tail = append(t.tail, rec{
		seq: r.Seq, recv: r.RecvNs, time: ev.Time, value: ev.Value,
		src: t.sym(ev.Source), a1: t.sym(ev.Arg1), a2: t.sym(ev.Arg2),
		evSeq: ev.Seq, typ: ev.Type,
	})
	t.nextSeq = max(t.nextSeq, r.Seq)
	if len(t.tail) == chunkLen {
		t.sealed = append(t.sealed, (*chunk)(t.tail))
		t.tail = nil
	}
}

// grow gives a full tail more room. A trace's first chunk grows
// geometrically, so short traces stay small; later tails start at a
// whole chunk.
func (t *Trace) grow() {
	if len(t.sealed) > 0 && len(t.tail) == 0 {
		t.tail = new(chunk)[:0]
		return
	}
	nt := make([]rec, len(t.tail), min(max(2*cap(t.tail), 16), chunkLen))
	copy(nt, t.tail)
	t.tail = nt
}

// sym returns the id of s, interning it.
func (t *Trace) sym(s string) uint32 {
	if s == "" {
		return 0
	}
	if t.syms != nil {
		if id, ok := t.syms.ids[s]; ok {
			return id
		}
	}
	if t.syms == nil {
		t.syms = &symtab{names: []string{""}, ids: map[string]uint32{}}
	} else if t.syms.shared.Load() {
		t.syms = &symtab{names: append([]string(nil), t.syms.names...), ids: maps.Clone(t.syms.ids)}
	}
	id := uint32(len(t.syms.names))
	t.syms.names = append(t.syms.names, s)
	t.syms.ids[s] = id
	return id
}

func (t *Trace) name(id uint32) string {
	if id == 0 {
		return ""
	}
	return t.syms.names[id]
}

func (t *Trace) record(r *rec) Record {
	return Record{Seq: r.seq, RecvNs: r.recv, Event: protocol.Event{
		Type: r.typ, Seq: r.evSeq, Time: r.time,
		Source: t.name(r.src), Arg1: t.name(r.a1), Arg2: t.name(r.a2),
		Value: r.value,
	}}
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.sealed)*chunkLen + len(t.tail) }

// at returns the stored record at index i.
func (t *Trace) at(i int) *rec {
	if c := i / chunkLen; c < len(t.sealed) {
		return &t.sealed[c][i%chunkLen]
	}
	return &t.tail[i-len(t.sealed)*chunkLen]
}

// At returns record i, 0 <= i < Len().
func (t *Trace) At(i int) Record { return t.record(t.at(i)) }

// Slice returns a copy of records [lo, hi).
func (t *Trace) Slice(lo, hi int) []Record {
	if lo < 0 || hi < lo || hi > t.Len() {
		panic(fmt.Sprintf("trace: slice [%d:%d] out of range with length %d", lo, hi, t.Len()))
	}
	out := make([]Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, t.At(i))
	}
	return out
}

// stored yields every stored record in order.
func (t *Trace) stored(yield func(int, *rec) bool) {
	i := 0
	for _, c := range t.sealed {
		for k := range c {
			if !yield(i, &c[k]) {
				return
			}
			i++
		}
	}
	for k := range t.tail {
		if !yield(i, &t.tail[k]) {
			return
		}
		i++
	}
}

// Records yields every record in order with its index:
//
//	for i, r := range tr.Records { ... }
func (t *Trace) Records(yield func(int, Record) bool) {
	for i, r := range t.stored {
		if !yield(i, t.record(r)) {
			return
		}
	}
}

// Clone returns a trace with the same records, program and sequence
// counter. It shares the sealed chunks and the symbol table and copies the
// live tail records, so appending to either trace never changes the
// other. Clone only reads t, so concurrent Clones of one trace are safe.
func (t *Trace) Clone() *Trace {
	cp := &Trace{
		Program:   t.Program,
		sealed:    t.sealed[:len(t.sealed):len(t.sealed)],
		syms:      t.syms,
		nextSeq:   t.nextSeq,
		emptyList: t.emptyList,
	}
	if t.syms != nil && !t.syms.shared.Load() {
		t.syms.shared.Store(true)
	}
	if len(t.tail) > 0 {
		cp.tail = append([]rec(nil), t.tail...)
	}
	return cp
}

// Reset empties the trace and restarts its sequence numbering. It keeps
// the program, the symbol table and the tail's capacity. Sealed chunks are
// dropped, not reused: a clone may share them.
func (t *Trace) Reset() {
	t.sealed = nil
	t.tail = t.tail[:0]
	t.nextSeq = 0
	t.emptyList = false
}

// traceJSON is the encoded form of a Trace.
type traceJSON struct {
	Program string   `json:"program"`
	Records []Record `json:"records"`
}

// MarshalJSON encodes the trace as {"program":…,"records":[…]}.
func (t *Trace) MarshalJSON() ([]byte, error) {
	j := traceJSON{Program: t.Program}
	if t.Len() > 0 || t.emptyList {
		j.Records = t.Slice(0, t.Len())
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes what MarshalJSON encodes, replacing the trace's
// records. Appends continue after the highest decoded sequence number.
func (t *Trace) UnmarshalJSON(b []byte) error {
	j := traceJSON{Program: t.Program}
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	t.Program = j.Program
	t.sealed, t.tail, t.syms, t.nextSeq = nil, nil, nil, 0
	t.emptyList = j.Records != nil && len(j.Records) == 0
	for _, r := range j.Records {
		t.push(r)
	}
	return nil
}

// FormatStable renders the trace one record per line in the stable
// format shared by the golden-trace tests and the replay-determinism CI
// diffs: any change to event ordering, timing, stamping or sequencing
// shows up as a line diff.
func (t *Trace) FormatStable() string {
	var sb strings.Builder
	for _, r := range t.Records {
		ev := r.Event
		fmt.Fprintf(&sb, "%04d recv=%d seq=%d t=%d %s src=%q a1=%q a2=%q v=%g\n",
			r.Seq, r.RecvNs, ev.Seq, ev.Time, ev.Type, ev.Source, ev.Arg1, ev.Arg2, ev.Value)
	}
	return sb.String()
}

// Span returns the [first, last] target-time window covered.
func (t *Trace) Span() (uint64, uint64) {
	if t.Len() == 0 {
		return 0, 0
	}
	lo, hi := t.at(0).time, t.at(0).time
	for _, r := range t.stored {
		lo, hi = min(lo, r.time), max(hi, r.time)
	}
	return lo, hi
}

// Filter returns a new trace containing the records keep accepts.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := New(t.Program)
	for _, r := range t.Records {
		if keep(r) {
			out.push(r)
		}
	}
	return out
}

// OfType selects records of one event type.
func (t *Trace) OfType(typ protocol.EventType) *Trace {
	return t.Filter(func(r Record) bool { return r.Event.Type == typ })
}

// WriteJSONL streams the trace as one JSON object per line, preceded by a
// header line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(map[string]string{"program": t.Program})
	if err != nil {
		return err
	}
	if _, err := bw.Write(append(hdr, '\n')); err != nil {
		return err
	}
	for _, r := range t.Records {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("trace: encode seq %d: %w", r.Seq, err)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: missing header")
	}
	var hdr map[string]string
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	t := New(hdr["program"])
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: bad record: %w", err)
		}
		t.push(rec)
	}
	return t, sc.Err()
}

// TimingDiagram projects the trace onto per-element tracks: state machines
// show their active state, signals and watches their value — the timing
// diagram the paper couples to the replay function.
func (t *Trace) TimingDiagram() *graphics.Diagram {
	d := graphics.NewDiagram()
	for _, r := range t.Records {
		ev := r.Event
		switch ev.Type {
		case protocol.EvStateEnter:
			d.Record(ev.Source, ev.Time, ev.Arg1)
		case protocol.EvSignal:
			d.Record(ev.Source, ev.Time, trimFloat(ev.Value))
		case protocol.EvWatch:
			d.Record(ev.Source, ev.Time, ev.Arg2)
		case protocol.EvTaskStart:
			d.Record("task:"+ev.Source, ev.Time, "run")
		case protocol.EvTaskDeadline:
			d.Record("task:"+ev.Source, ev.Time, "idle")
		case protocol.EvBreakHit:
			d.Record("breakpoints", ev.Time, ev.Source)
		case protocol.EvPreempt:
			// Scheduling incidents project as lane markers on the task's
			// track, not value changes — the preempted body is still "the"
			// activity; the marker shows where it lost the CPU and to whom.
			d.MarkAt("task:"+ev.Source, ev.Time, '^', "preempt<"+ev.Arg1)
		case protocol.EvDeadlineMiss:
			d.MarkAt("task:"+ev.Source, ev.Time, '!', "miss")
		case protocol.EvBusSlot:
			// The slot-grid lane: one shared "bus" track whose value is the
			// node transmitting — TDMA rounds read as a repeating owner
			// pattern, and a queue backlog shows as a node's name stretching
			// across what should be other owners' slots.
			d.Record("bus", ev.Time, ev.Source)
		case protocol.EvFrameDropped:
			d.MarkAt("bus", ev.Time, 'x', "drop:"+ev.Arg1)
		}
	}
	return d
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// Replayer feeds a recorded trace back through the same reaction pipeline,
// optionally time-scaled. It implements the engine's EventSource contract:
// Poll(now) returns every event whose scaled timestamp has been reached.
type Replayer struct {
	trace *Trace
	pos   int
	// Speed scales replay: 1 = real (virtual) time, 2 = twice as fast,
	// 0 = deliver everything immediately.
	Speed float64
	base  uint64 // first event's target time
}

// NewReplayer creates a replayer at the given speed.
func NewReplayer(t *Trace, speed float64) *Replayer {
	r := &Replayer{trace: t, Speed: speed}
	if t.Len() > 0 {
		r.base = t.at(0).time
	}
	return r
}

// Poll returns the events due by (host-relative) time now, in order.
func (r *Replayer) Poll(now uint64) []protocol.Event {
	var out []protocol.Event
	for r.pos < r.trace.Len() {
		rec := r.trace.At(r.pos)
		if r.Speed > 0 {
			due := uint64(float64(rec.Event.Time-r.base) / r.Speed)
			if due > now {
				break
			}
		}
		out = append(out, rec.Event)
		r.pos++
	}
	return out
}

// Done reports whether the whole trace has been replayed.
func (r *Replayer) Done() bool { return r.pos >= r.trace.Len() }

// Reset rewinds the replayer.
func (r *Replayer) Reset() { r.pos = 0 }
