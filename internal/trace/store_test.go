package trace

// Tests of the chunked record store: a differential against a reference
// flat-slice trace (the storage model the chunks replaced), driven by
// random and fuzzed operation streams; the pointer-free layout; the
// append allocation bound; and concurrent clones of one trace.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/protocol"
)

// refTrace is the reference: every record in one []Record, as the trace
// stored them before chunking.
type refTrace struct {
	program string
	recs    []Record
	nextSeq uint64
}

func (r *refTrace) append(ev protocol.Event, recv uint64) Record {
	r.nextSeq++
	rec := Record{Seq: r.nextSeq, RecvNs: recv, Event: ev}
	r.recs = append(r.recs, rec)
	return rec
}

func (r *refTrace) push(rec Record) {
	r.recs = append(r.recs, rec)
	r.nextSeq = max(r.nextSeq, rec.Seq)
}

func (r *refTrace) clone() *refTrace {
	return &refTrace{program: r.program, recs: append([]Record(nil), r.recs...), nextSeq: r.nextSeq}
}

func (r *refTrace) reset() { r.recs, r.nextSeq = nil, 0 }

func (r *refTrace) filter(keep func(Record) bool) *refTrace {
	out := &refTrace{program: r.program}
	for _, rec := range r.recs {
		if keep(rec) {
			out.push(rec)
		}
	}
	return out
}

func (r *refTrace) span() (uint64, uint64) {
	if len(r.recs) == 0 {
		return 0, 0
	}
	lo, hi := r.recs[0].Event.Time, r.recs[0].Event.Time
	for _, rec := range r.recs {
		lo, hi = min(lo, rec.Event.Time), max(hi, rec.Event.Time)
	}
	return lo, hi
}

func (r *refTrace) json() ([]byte, error) {
	return json.Marshal(struct {
		Program string   `json:"program"`
		Records []Record `json:"records"`
	}{r.program, r.recs})
}

func (r *refTrace) jsonl() ([]byte, error) {
	var buf bytes.Buffer
	hdr, _ := json.Marshal(map[string]string{"program": r.program})
	buf.Write(append(hdr, '\n'))
	for _, rec := range r.recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes(), nil
}

func (r *refTrace) stable() string {
	var sb bytes.Buffer
	for _, rec := range r.recs {
		ev := rec.Event
		fmt.Fprintf(&sb, "%04d recv=%d seq=%d t=%d %s src=%q a1=%q a2=%q v=%g\n",
			rec.Seq, rec.RecvNs, ev.Seq, ev.Time, ev.Type, ev.Source, ev.Arg1, ev.Arg2, ev.Value)
	}
	return sb.String()
}

// replay is the reference Replayer: the due events of each poll instant.
func (r *refTrace) replay(speed float64, polls []uint64) [][]protocol.Event {
	var out [][]protocol.Event
	pos := 0
	var base uint64
	if len(r.recs) > 0 {
		base = r.recs[0].Event.Time
	}
	for _, now := range polls {
		var due []protocol.Event
		for pos < len(r.recs) {
			ev := r.recs[pos].Event
			if speed > 0 && uint64(float64(ev.Time-base)/speed) > now {
				break
			}
			due = append(due, ev)
			pos++
		}
		out = append(out, due)
	}
	return out
}

// sameRecord compares records bit for bit (NaN values included).
func sameRecord(a, b Record) bool {
	va, vb := a.Event.Value, b.Event.Value
	a.Event.Value, b.Event.Value = 0, 0
	return a == b && math.Float64bits(va) == math.Float64bits(vb)
}

// ops decodes a byte stream into trace operations.
type ops struct {
	b []byte
	i int
}

func (o *ops) more() bool { return o.i < len(o.b) }

func (o *ops) byte() byte {
	if o.i >= len(o.b) {
		return 0
	}
	o.i++
	return o.b[o.i-1]
}

func (o *ops) u16() int { return int(o.byte())<<8 | int(o.byte()) }

// vocab is the fixed part of the name space; name also invents fresh
// names, so clones diverge in their symbol tables.
var vocab = []string{"", "", "heater", "heater.ctrl", "Idle", "Heating", "node00", "bus", "a<b&c", "ünï"}

func (o *ops) name(fresh *int) string {
	k := o.byte()
	if k >= 240 {
		*fresh++
		return fmt.Sprintf("fresh%d", *fresh)
	}
	return vocab[int(k)%len(vocab)]
}

func (o *ops) event(fresh *int, at uint64) protocol.Event {
	ev := protocol.Event{
		Type:   protocol.EventType(o.byte() % 20),
		Seq:    uint16(o.u16()),
		Time:   at,
		Source: o.name(fresh),
		Arg1:   o.name(fresh),
		Arg2:   o.name(fresh),
	}
	switch v := o.byte(); {
	case v == 255:
		ev.Value = math.Inf(1)
	case v == 254:
		ev.Value = math.Copysign(0, -1)
	default:
		ev.Value = float64(v) / 4
	}
	return ev
}

// pair is one trace under test with its reference.
type pair struct {
	tr  *Trace
	ref *refTrace
}

// runOps applies the operation stream to traces and their references and
// checks every observable output after each operation. It returns the
// longest trace it checked.
func runOps(t *testing.T, data []byte) (longest int) {
	o := &ops{b: data}
	pairs := []pair{{New("p"), &refTrace{program: "p"}}}
	var fresh int
	var clock uint64
	for step := 0; o.more() && step < 400; step++ {
		k := int(o.byte()) % len(pairs)
		p := &pairs[k]
		switch op := o.byte() % 10; op {
		case 0, 1, 2: // append one event
			clock += uint64(o.byte()) * 1000
			ev := o.event(&fresh, clock)
			recv := clock + uint64(o.byte())
			got, want := p.tr.Append(ev, recv), p.ref.append(ev, recv)
			if !sameRecord(got, want) {
				t.Fatalf("step %d: Append = %+v, want %+v", step, got, want)
			}
		case 3: // append a burst, enough to cross chunk boundaries
			n := o.u16() % 1500
			ev := o.event(&fresh, clock)
			for i := range n {
				ev.Time = clock + uint64(i)
				ev.Seq = uint16(i)
				p.tr.Append(ev, ev.Time)
				p.ref.append(ev, ev.Time)
			}
			clock += uint64(n)
		case 4: // clone
			if len(pairs) < 6 {
				pairs = append(pairs, pair{p.tr.Clone(), p.ref.clone()})
			}
		case 5:
			p.tr.Reset()
			p.ref.reset()
		case 6: // filters produce new traces
			var nt *Trace
			var nr *refTrace
			switch o.byte() % 3 {
			case 0:
				typ := protocol.EventType(o.byte() % 20)
				nt = p.tr.OfType(typ)
				nr = p.ref.filter(func(r Record) bool { return r.Event.Type == typ })
			case 1:
				lo, hi := p.ref.span()
				t0 := lo + (hi-lo)*uint64(o.byte())/255
				t1 := t0 + (hi-t0)*uint64(o.byte())/255
				keep := func(r Record) bool { return r.Event.Time >= t0 && r.Event.Time <= t1 }
				nt, nr = p.tr.Filter(keep), p.ref.filter(keep)
			default:
				keep := func(r Record) bool { return r.Seq%3 != 0 }
				nt, nr = p.tr.Filter(keep), p.ref.filter(keep)
			}
			if len(pairs) < 6 {
				pairs = append(pairs, pair{nt, nr})
			} else {
				check(t, step, pair{nt, nr}, o)
			}
		case 7: // replace with a JSON round trip of itself
			js, err := json.Marshal(p.tr)
			if _, werr := p.ref.json(); (err != nil) != (werr != nil) {
				t.Fatalf("step %d: marshal error %v, reference error %v", step, err, werr)
			}
			if err != nil {
				continue // an infinite value has no JSON form
			}
			var back Trace
			if err := json.Unmarshal(js, &back); err != nil {
				t.Fatalf("step %d: unmarshal: %v", step, err)
			}
			p.tr = &back
		case 8: // replace with a JSONL round trip of itself
			var buf bytes.Buffer
			err := p.tr.WriteJSONL(&buf)
			if _, werr := p.ref.jsonl(); (err != nil) != (werr != nil) {
				t.Fatalf("step %d: WriteJSONL error %v, reference error %v", step, err, werr)
			}
			if err != nil {
				continue
			}
			back, err := ReadJSONL(&buf)
			if err != nil {
				t.Fatalf("step %d: ReadJSONL: %v", step, err)
			}
			p.tr = back
		default:
			check(t, step, *p, o)
		}
	}
	for _, p := range pairs {
		check(t, -1, p, o)
		longest = max(longest, p.tr.Len())
	}
	return longest
}

// check compares every output of a trace with its reference.
func check(t *testing.T, step int, p pair, o *ops) {
	t.Helper()
	tr, ref := p.tr, p.ref
	if tr.Len() != len(ref.recs) {
		t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(ref.recs))
	}
	for i, r := range tr.Records {
		if !sameRecord(r, ref.recs[i]) || !sameRecord(tr.At(i), r) {
			t.Fatalf("step %d: record %d = %+v, want %+v", step, i, r, ref.recs[i])
		}
	}
	if n := len(ref.recs); n > 0 {
		lo := int(o.byte()) * n / 256
		hi := lo + int(o.byte())*(n-lo)/255
		got := tr.Slice(lo, hi)
		if len(got) != hi-lo {
			t.Fatalf("step %d: Slice(%d, %d) has %d records", step, lo, hi, len(got))
		}
		for i := range got {
			if !sameRecord(got[i], ref.recs[lo+i]) {
				t.Fatalf("step %d: Slice(%d, %d)[%d] = %+v", step, lo, hi, i, got[i])
			}
		}
	}
	l, h := tr.Span()
	if wl, wh := ref.span(); l != wl || h != wh {
		t.Fatalf("step %d: Span = %d..%d, want %d..%d", step, l, h, wl, wh)
	}
	if got, want := tr.FormatStable(), ref.stable(); got != want {
		t.Fatalf("step %d: FormatStable differs", step)
	}
	js, err := json.Marshal(tr)
	want, werr := ref.json()
	if (err != nil) != (werr != nil) || !bytes.Equal(js, want) {
		t.Fatalf("step %d: JSON differs (err %v, reference err %v)", step, err, werr)
	}
	var jl bytes.Buffer
	err = tr.WriteJSONL(&jl)
	want, werr = ref.jsonl()
	if (err != nil) != (werr != nil) || (err == nil && !bytes.Equal(jl.Bytes(), want)) {
		t.Fatalf("step %d: JSONL differs (err %v, reference err %v)", step, err, werr)
	}
	// Appends continue the sequence numbering alike.
	if got, want := tr.Clone().Append(protocol.Event{}, 0).Seq, ref.nextSeq+1; got != want {
		t.Fatalf("step %d: next Seq = %d, want %d", step, got, want)
	}
	speed := float64(o.byte()%4) / 2
	polls := []uint64{0, 1000, 50_000, 1 << 40}
	rp := NewReplayer(tr, speed)
	for i, due := range ref.replay(speed, polls) {
		got := rp.Poll(polls[i])
		if len(got) != len(due) {
			t.Fatalf("step %d: replay poll %d: %d events, want %d", step, i, len(got), len(due))
		}
		for k := range got {
			if !sameRecord(Record{Event: got[k]}, Record{Event: due[k]}) {
				t.Fatalf("step %d: replay poll %d event %d differs", step, i, k)
			}
		}
	}
}

func TestTraceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1200)
		rng.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if n := runOps(t, data); n <= chunkLen {
				t.Errorf("longest trace %d records: the stream must cross a chunk boundary", n)
			}
		})
	}
}

func FuzzTraceMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 9, 0, 1, 2, 3, 4, 5, 6, 7, 0, 4, 0, 9})
	f.Add([]byte{0, 3, 4, 200, 1, 0, 0, 2, 3, 4, 5, 0, 4, 1, 0, 245, 1, 2, 0, 250, 0, 7, 1, 9})
	f.Add([]byte{0, 0, 1, 2, 3, 0, 4, 0, 5, 0, 6, 2, 0, 8, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}

// TestStoredRecordsHoldNoPointers: the garbage collector never scans the
// history only while the stored record and chunk types hold no pointers.
func TestStoredRecordsHoldNoPointers(t *testing.T) {
	var hasPtr func(reflect.Type) bool
	hasPtr = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return true
		case reflect.Array:
			return hasPtr(ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				if hasPtr(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	for _, ty := range []reflect.Type{reflect.TypeFor[rec](), reflect.TypeFor[chunk]()} {
		if hasPtr(ty) {
			t.Errorf("%v holds pointers", ty)
		}
	}
}

// TestAppendAllocationBound: appending over a fixed vocabulary costs the
// stored records and little more; no append copies the history.
func TestAppendAllocationBound(t *testing.T) {
	const n = 100_000
	evs := []protocol.Event{
		{Type: protocol.EvStateEnter, Source: "heater.ctrl", Arg1: "Idle"},
		{Type: protocol.EvSignal, Source: "heater.power", Arg2: "100", Value: 100},
		{Type: protocol.EvBusSlot, Source: "node00", Arg1: "token"},
	}
	tr := New("bound")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		ev := evs[i%len(evs)]
		ev.Time = uint64(i)
		tr.Append(ev, uint64(i))
	}
	runtime.ReadMemStats(&after)
	limit := uint64(1.25 * n * float64(reflect.TypeFor[rec]().Size()))
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("%d appends allocated %d bytes, bound %d", n, got, limit)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestConcurrentClones: goroutines that clone one trace at once and grow
// their clones with new names share the sealed chunks and the symbol
// table without a data race (run under -race) and without seeing each
// other's records.
func TestConcurrentClones(t *testing.T) {
	base := New("shared")
	for i := range 3000 {
		base.Append(protocol.Event{Type: protocol.EvSignal, Time: uint64(i), Source: fmt.Sprint("s", i%7)}, 0)
	}
	want := base.FormatStable()
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 20 {
				c := base.Clone()
				for i := range 1500 {
					c.Append(protocol.Event{Type: protocol.EvWatch, Source: fmt.Sprintf("g%d.r%d.%d", g, round, i%5)}, 0)
				}
				if c.Len() != 4500 || c.At(2999).Event.Source != "s3" || c.At(4499).Event.Source != fmt.Sprintf("g%d.r%d.4", g, round) {
					t.Errorf("goroutine %d round %d: clone records wrong", g, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	if base.FormatStable() != want {
		t.Fatal("clones changed the shared trace")
	}
}

// TestResetReusesStorage: a trace reset and refilled within one chunk
// allocates nothing once warm, as a campaign runner's per-variant trace
// does; a clone taken before the reset keeps its records.
func TestResetReusesStorage(t *testing.T) {
	tr := New("reuse")
	fill := func() {
		for i := range 1000 {
			tr.Append(protocol.Event{Type: protocol.EvSignal, Time: uint64(i), Source: "x"}, 0)
		}
	}
	fill()
	kept := tr.Clone()
	want := kept.FormatStable()
	tr.Reset()
	fill()
	if kept.FormatStable() != want {
		t.Fatal("Reset changed a clone's records")
	}
	if n := testing.AllocsPerRun(5, func() { tr.Reset(); fill() }); n != 0 {
		t.Fatalf("reset and refill allocated %v times, want 0", n)
	}
	if tr.Len() != 1000 || tr.At(0).Seq != 1 {
		t.Fatalf("after Reset: Len %d, first seq %d", tr.Len(), tr.At(0).Seq)
	}
}
