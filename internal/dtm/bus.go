package dtm

// The communication medium between nodes. Two models share one Network:
//
//   - Constant latency (default): every frame is delivered LatencyNs after
//     Send — the seed behaviour, byte-identical to the original goldens.
//   - Time-triggered bus (BusSchedule installed): a TTP/FlexRay-style TDMA
//     cycle of named sender slots. Sender.Send enqueues into the sender's TX
//     queue; the frame departs in the sender's next free slot (one frame
//     per slot), optionally delayed by bounded release jitter, optionally
//     lost with a deterministic seeded per-slot probability, and arrives
//     LatencyNs (propagation) after departure. Frames published outside
//     any owned slot contend: they wait, queued, for the next owned slot.
//
// Everything is deterministic and explicit-state: the RNG is a seeded
// splitmix64 counter captured in NetworkState, queued and in-flight frames
// are records carrying their kernel event sequence numbers, and the
// per-node slot cursors are serialized — a checkpoint taken mid-TDMA-cycle
// restores with the exact queue, phase and future loss pattern.
//
// Head-only arming. An overloaded bus queues frames far faster than its
// slots drain them, so the TX queues can hold thousands of frames. Each
// frame's departure slot, jitter, loss and event identities are still all
// fixed at send — the departure takes its kernel seq there (ReserveSeq),
// keyed (departAt, enqueue instant, departSeq) — but only the head of each
// owner's queue has its departure event in the kernel heap; each departure
// arms the next head. A queue departs in send order and its departure
// instants strictly increase (one frame per slot, slots ordered), so every
// held-back event enters the heap before any event it precedes could pop,
// and the event order is exactly that of arming everything at send. A
// frame's delivery is armed when it departs, with its (arrival, enqueue
// instant, delivery seq) identity fixed at send; a lost frame never arms
// one. The heap holds O(nodes) network events, however deep the backlog.
//
// A snapshot still lists every held-back event's schedule instant
// (SnapshotKernel), so the checkpoint bytes are those of a heap holding
// every event; Restore rebuilds the queues and arms only their heads.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/value"
)

// DeliveryBase is the bottom of the sequence-number range the network uses
// for delivery events. Deliveries are ordered by a dedicated counter that
// increments in send order, kept in a range no kernel counter can ever
// reach so the two number spaces cannot collide. Checkpoints carry these
// numbers, so the numbering is part of the checkpoint format.
const DeliveryBase = uint64(1) << 62

// BusSlot is one sender slot of the TDMA cycle.
type BusSlot struct {
	// Owner is the node name allowed to transmit in this slot.
	Owner string `json:"owner"`
	// LenNs is the slot length.
	LenNs uint64 `json:"lenNs"`
}

// BusSchedule is a TDMA cycle: the slots repeat forever in order, each
// separated by GapNs of inter-slot gap, with the first cycle anchored at
// virtual time zero. A node may own any number of slots per cycle; one
// frame departs per owned slot.
type BusSchedule struct {
	Slots []BusSlot `json:"slots"`
	// GapNs is the idle guard time after every slot.
	GapNs uint64 `json:"gapNs,omitempty"`
	// JitterNs bounds the release jitter added to each departure: a
	// deterministic draw in [0, JitterNs] delays the frame within its slot
	// (Validate requires JitterNs < every slot length).
	JitterNs uint64 `json:"jitterNs,omitempty"`
	// LossPerMille is the per-slot probability (in 1/1000) that a departing
	// frame is lost on the medium. The draw is seeded and deterministic.
	LossPerMille uint32 `json:"lossPerMille,omitempty"`
	// Seed initialises the jitter/loss RNG.
	Seed uint64 `json:"seed,omitempty"`
}

// Validate checks the schedule's shape.
func (s *BusSchedule) Validate() error {
	if len(s.Slots) == 0 {
		return fmt.Errorf("dtm: bus schedule with no slots")
	}
	for i, sl := range s.Slots {
		if sl.Owner == "" {
			return fmt.Errorf("dtm: bus slot %d has no owner", i)
		}
		if sl.LenNs == 0 {
			return fmt.Errorf("dtm: bus slot %d (%s) has zero length", i, sl.Owner)
		}
		if s.JitterNs >= sl.LenNs {
			return fmt.Errorf("dtm: release jitter %d ns >= slot %d (%s) length %d ns", s.JitterNs, i, sl.Owner, sl.LenNs)
		}
	}
	if s.LossPerMille > 1000 {
		return fmt.Errorf("dtm: loss %d per mille > 1000", s.LossPerMille)
	}
	return nil
}

// Clone copies a bus schedule (nil-safe). Campaign variants derive their
// schedule from the base checkpoint's by editing the copy's seed, loss,
// jitter and slot owners. The original must stay as it is: every worker
// reads the base, and Network.Snapshot hands out the live schedule
// pointer, so an edit in place would re-parameterise a running bus
// behind its back.
func (s *BusSchedule) Clone() *BusSchedule {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Slots = slices.Clone(s.Slots)
	return &cp
}

// CycleNs returns the TDMA cycle length (slots plus gaps).
func (s *BusSchedule) CycleNs() uint64 {
	var total uint64
	for _, sl := range s.Slots {
		total += sl.LenNs + s.GapNs
	}
	return total
}

// Owns reports whether owner holds at least one slot in the cycle.
func (s *BusSchedule) Owns(owner string) bool {
	for _, sl := range s.Slots {
		if sl.Owner == owner {
			return true
		}
	}
	return false
}

// slotOffset returns slot i's start offset within the cycle.
func (s *BusSchedule) slotOffset(i int) uint64 {
	var off uint64
	for j := 0; j < i; j++ {
		off += s.Slots[j].LenNs + s.GapNs
	}
	return off
}

// SlotStart returns the absolute start instant of global slot index abs
// (abs counts slots across cycles: slot i of cycle c is c*len(Slots)+i).
func (s *BusSchedule) SlotStart(abs uint64) uint64 {
	n := uint64(len(s.Slots))
	return (abs/n)*s.CycleNs() + s.slotOffset(int(abs%n))
}

// SlotAt returns the slot open at instant t, or ok=false when t falls in
// an inter-slot gap.
func (s *BusSchedule) SlotAt(t uint64) (owner string, abs uint64, ok bool) {
	n := uint64(len(s.Slots))
	cycle := t / s.CycleNs()
	rem := t % s.CycleNs()
	var off uint64
	for i, sl := range s.Slots {
		if rem >= off && rem < off+sl.LenNs {
			return sl.Owner, cycle*n + uint64(i), true
		}
		off += sl.LenNs + s.GapNs
	}
	return "", 0, false
}

// slotTable is a schedule's slot grid, precomputed by SetSchedule so the
// per-send slot search does no string compares and recomputes no offsets.
type slotTable struct {
	n     uint64   // slots per cycle
	cycle uint64   // cycle length (slots plus gaps)
	off   []uint64 // start offset of each slot within the cycle
	end   []uint64 // end offset (start + length) of each slot within the cycle
}

func newSlotTable(s *BusSchedule) slotTable {
	t := slotTable{n: uint64(len(s.Slots)), off: make([]uint64, len(s.Slots)), end: make([]uint64, len(s.Slots))}
	for i, sl := range s.Slots {
		t.off[i] = t.cycle
		t.end[i] = t.cycle + sl.LenNs
		t.cycle += sl.LenNs + s.GapNs
	}
	return t
}

// start returns the absolute start instant of global slot index abs.
func (t *slotTable) start(abs uint64) uint64 { return abs/t.n*t.cycle + t.off[abs%t.n] }

// slotEnd returns the absolute end instant of global slot index abs.
func (t *slotTable) slotEnd(abs uint64) uint64 { return abs/t.n*t.cycle + t.end[abs%t.n] }

// nextOwned returns the smallest global slot index >= minAbs among the
// owner's slots (its ascending slot indices within the cycle, at least
// one) that is still open or ahead at instant now. At most one cycle's
// worth of the owner's slots can end at or before now, so the search is
// bounded by the owner's slot count.
func (t *slotTable) nextOwned(slots []uint64, minAbs, now uint64) uint64 {
	c := now / t.cycle
	lo := c * t.n
	if minAbs > lo {
		c, lo = minAbs/t.n, minAbs
	}
	k, _ := slices.BinarySearch(slots, lo%t.n)
	for ; ; k++ {
		if k == len(slots) {
			c, k = c+1, 0
		}
		if c*t.cycle+t.end[slots[k]] > now {
			return c*t.n + slots[k]
		}
	}
}

// BusStats is the per-node TX accounting of the time-triggered bus.
type BusStats struct {
	// Enqueued counts frames handed to this node's TX queue.
	Enqueued uint64 `json:"enqueued,omitempty"`
	// Delivered counts frames that reached their destination store.
	Delivered uint64 `json:"delivered,omitempty"`
	// Dropped counts frames lost on the medium (or unschedulable).
	Dropped uint64 `json:"dropped,omitempty"`
	// Queued is the current TX queue depth (enqueued, not yet departed).
	Queued int `json:"queued,omitempty"`
	// WorstQueueNs is the worst enqueue-to-departure queueing delay seen.
	WorstQueueNs uint64 `json:"worstQueueNs,omitempty"`
}

// Network models the communication medium between nodes: labelled signal
// messages delivered into remote Stores. Without a BusSchedule it is a
// constant-latency pipe (the COMDES deadline-latching analysis assumption);
// with one it is a time-triggered TDMA bus — see the package comment at the
// top of this file.
//
// Frames in flight are explicit records, not closures: a snapshot carries
// them and a restore re-arms their events at the original instants and
// kernel sequence positions. Destinations that should survive a snapshot
// must be registered with Bind, which gives each store the stable name the
// portable form uses.
type Network struct {
	K         *Kernel
	LatencyNs uint64
	Sent      uint64
	// Dropped counts frames lost bus-wide (sum of per-node drops).
	Dropped uint64

	// OnSlot, when set, observes every TDMA frame departure: the frame of
	// signal left owner's TX queue in global slot index slot.
	OnSlot func(now uint64, owner, signal string, slot uint64)
	// OnDrop, when set, observes every frame loss at its departure slot;
	// total is the owner's cumulative drop count.
	OnDrop func(now uint64, owner, signal string, total uint64)

	sched  *BusSchedule
	table  slotTable
	owners []*Sender // distinct slot owners, in first-slot order
	// senders holds every node the network has a record for: slot owners,
	// senders and the nodes a restored state names. A record is never
	// replaced, so a Sender handle stays valid across SetSchedule and
	// Restore.
	senders map[string]*Sender
	rng     uint64

	names  map[*Store]string
	stores map[string]*Store
	// inflight lists the frames queued or on the wire in send order, linked
	// through the frames themselves so a frame retires in O(1).
	inflight flightList

	// mu guards the shared state above (counters, RNG, the sender records
	// with their cursors and stats, the in-flight list) and dseq.
	mu sync.Mutex
	// dseq numbers deliveries in send order (seq = DeliveryBase + dseq).
	dseq uint64
	// free holds frame records retired by their own events, for reuse.
	free []*netFlight
}

// netFlight is one signal message queued for or on the wire.
type netFlight struct {
	// deliver is the record's delivery callback, made once per record:
	// records are reused (newFlight), so steady traffic allocates neither.
	deliver func(now uint64)

	signal string
	v      value.Value
	at     uint64 // delivery instant
	seq    uint64 // delivery event sequence number
	dst    *Store

	// prev and next link the frame into Network.inflight; linked is false
	// once it has retired (or was never listed).
	prev, next *netFlight
	linked     bool

	// qnext links an undeparted TDMA frame to the next one in its owner's
	// TX queue.
	qnext *netFlight

	// TDMA fields (zero on constant-latency frames).
	from      *Sender // sending node
	enq       uint64  // enqueue instant
	slot      uint64  // global index of the departure slot
	departAt  uint64
	departSeq uint64
	departed  bool
	lost      bool
}

// Sender is one sending node's side of the network, resolved by name once
// (Network.Sender) so a send looks nothing up: its slot indices within the
// cycle, its TX queue of undeparted frames in send order — which is
// departure order — its slot cursor and its BusStats. Only the head's
// departure event is in a kernel heap.
type Sender struct {
	n          *Network
	name       string
	slots      []uint64 // ascending; empty when the node owns no slot
	head, tail *netFlight
	// depart is the callback of every departure event of this owner: it
	// departs the head.
	depart func(now uint64)

	// cursor is the next claimable global slot index; hasCursor says
	// whether the network state lists it.
	cursor    uint64
	hasCursor bool
	// stats is the node's TX accounting; hasStats says whether the bus
	// knows the node (Stats ok, listed in the network state). Both are
	// zero while it does not.
	stats    BusStats
	hasStats bool
}

// push appends f to the queue; it reports whether f is the new head.
func (q *Sender) push(f *netFlight) bool {
	f.qnext = nil
	if q.tail == nil {
		q.head, q.tail = f, f
		return true
	}
	q.tail.qnext, q.tail = f, f
	return false
}

// pop removes and returns the head (nil when empty).
func (q *Sender) pop() *netFlight {
	f := q.head
	if f == nil {
		return nil
	}
	q.head, f.qnext = f.qnext, nil
	if q.head == nil {
		q.tail = nil
	}
	return f
}

// flightList is an intrusive doubly-linked list of frames in send order.
type flightList struct {
	head, tail *netFlight
	n          int
}

// push appends f at the tail (the newest send).
func (l *flightList) push(f *netFlight) {
	f.prev, f.next, f.linked = l.tail, nil, true
	if l.tail != nil {
		l.tail.next = f
	} else {
		l.head = f
	}
	l.tail = f
	l.n++
}

// remove unlinks f; a frame no longer listed is left alone.
func (l *flightList) remove(f *netFlight) {
	if !f.linked {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next, f.linked = nil, nil, false
	l.n--
}

// clear unlinks every frame, so a stale event that still retires one of
// them cannot touch the list again.
func (l *flightList) clear() {
	for f := l.head; f != nil; {
		next := f.next
		f.prev, f.next, f.linked = nil, nil, false
		f = next
	}
	*l = flightList{}
}

// NewNetwork creates a constant-latency network over the kernel.
func NewNetwork(k *Kernel, latencyNs uint64) *Network {
	return &Network{
		K: k, LatencyNs: latencyNs,
		senders: map[string]*Sender{},
		names:   map[*Store]string{},
		stores:  map[string]*Store{},
	}
}

// Sender returns the handle of sending node name, creating its record on
// first use. A node unknown to the bus stays unknown to Stats until it
// sends.
func (n *Network) Sender(name string) *Sender {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sender(name)
}

// sender is Sender with mu held.
func (n *Network) sender(name string) *Sender {
	q, ok := n.senders[name]
	if !ok {
		q = &Sender{n: n, name: name}
		q.depart = func(now uint64) { n.departHead(q, now) }
		n.senders[name] = q
	}
	return q
}

// SetSchedule installs (or, with nil, removes) the TDMA bus schedule.
// LatencyNs becomes the propagation delay after departure. Installing a
// schedule resets the jitter/loss RNG to the schedule's seed; it is
// rejected while frames are in flight (their timing is already committed).
func (n *Network) SetSchedule(s *BusSchedule) error {
	if n.inflight.n > 0 {
		return fmt.Errorf("dtm: cannot change bus schedule with %d frames in flight", n.inflight.n)
	}
	if s != nil {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	for _, q := range n.senders {
		q.slots, q.head, q.tail = nil, nil, nil
	}
	n.owners = nil
	if s == nil {
		n.sched, n.table = nil, slotTable{}
		return nil
	}
	n.sched = s
	n.table = newSlotTable(s)
	n.rng = s.Seed
	for _, q := range n.senders {
		q.cursor, q.hasCursor = 0, false
	}
	// Pre-register every slot owner so Stats can tell "no traffic yet"
	// (zero stats, ok) from "not on this bus" (ok=false).
	for i, sl := range s.Slots {
		q := n.sender(sl.Owner)
		if len(q.slots) == 0 {
			n.owners = append(n.owners, q)
		}
		q.slots = append(q.slots, uint64(i))
		q.hasStats = true
	}
	return nil
}

// Schedule returns the installed TDMA schedule (nil = constant latency).
func (n *Network) Schedule() *BusSchedule { return n.sched }

// Bind registers a destination store under a stable name (the cluster uses
// node names), making frames addressed to it snapshotable.
func (n *Network) Bind(name string, dst *Store) {
	n.names[dst] = name
	n.stores[name] = dst
}

// rand is one splitmix64 draw; the counter is the checkpointed RNG state.
func (n *Network) rand() uint64 {
	n.rng += 0x9e3779b97f4a7c15
	z := n.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// Send submits a frame from q. Without a bus schedule it is one delivery
// LatencyNs from now, whatever the sender. Under a schedule the
// frame joins q's TX queue and departs in q's next free slot — its
// departure instant, release jitter, loss outcome and event identities are
// all decided (deterministically) here, so a snapshot taken at any later
// instant carries the committed timing. Only a frame that heads the queue
// has its departure armed now, and its delivery is armed when it departs.
// Deliveries are numbered from a dedicated counter in send order
// (DeliveryBase + dseq) instead of consuming a kernel seq.
func (q *Sender) Send(signal string, v value.Value, dst *Store) {
	n := q.n
	n.mu.Lock()
	if n.sched == nil {
		n.sendLatency(signal, v, dst)
		n.mu.Unlock()
		return
	}
	now := n.K.Now()
	n.Sent++
	q.hasStats = true
	st := &q.stats
	st.Enqueued++
	if len(q.slots) == 0 {
		// A sender owning no slot can never transmit; the frame is dropped
		// at enqueue. BuildCluster validates producers upfront, so this is
		// only reachable on hand-built networks.
		st.Dropped++
		n.Dropped++
		total := st.Dropped
		n.mu.Unlock()
		if n.OnDrop != nil {
			n.OnDrop(now, q.name, signal, total)
		}
		return
	}
	abs := n.table.nextOwned(q.slots, q.cursor, now)
	q.cursor, q.hasCursor = abs+1, true // one frame per slot
	start := n.table.start(abs)
	dep := start
	if dep < now {
		dep = now // published mid-slot: depart immediately within the slot
	}
	if n.sched.JitterNs > 0 {
		dep += n.rand() % (n.sched.JitterNs + 1)
		// Release jitter delays the departure *within* the slot (Validate
		// guarantees JitterNs < slot length, so a start-of-slot departure
		// can never overshoot). A mid-slot publish near the slot end is
		// clamped to the last instant of the slot rather than bleeding into
		// the guard gap or another owner's slot.
		if end := n.table.slotEnd(abs); dep >= end {
			dep = end - 1
		}
	}
	f := n.newFlight()
	f.signal, f.v, f.dst = signal, v, dst
	f.from, f.enq, f.slot, f.departAt, f.at = q, now, abs, dep, dep+n.LatencyNs
	if n.sched.LossPerMille > 0 {
		f.lost = n.rand()%1000 < uint64(n.sched.LossPerMille)
	}
	f.seq = DeliveryBase + n.dseq
	n.dseq++
	f.departSeq = n.K.ReserveSeq()
	n.inflight.push(f)
	st.Queued++
	if q.push(f) {
		n.K.arm(f.departAt, f.enq, f.departSeq, q.depart)
	}
	n.mu.Unlock()
}

// sendLatency is the constant-latency path (mu held).
func (n *Network) sendLatency(signal string, v value.Value, dst *Store) {
	now := n.K.Now()
	n.Sent++
	f := n.newFlight()
	f.signal, f.v, f.enq, f.at, f.dst = signal, v, now, now+n.LatencyNs, dst
	f.seq = DeliveryBase + n.dseq
	n.dseq++
	n.inflight.push(f)
	_ = n.K.ScheduleAt(f.at, now, f.seq, f.deliver)
}

// maxFreeFlights bounds the retired frame records kept for reuse.
const maxFreeFlights = 256

// newFlight returns a zeroed frame record (mu held), reusing one that its
// own event retired.
func (n *Network) newFlight() *netFlight {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return f
	}
	f := &netFlight{}
	f.deliver = func(uint64) { n.deliver(f) }
	return f
}

// retire removes a frame from the in-flight list for good (mu held by the
// caller) and keeps its record for newFlight. Only the event that ends a
// frame — its delivery, or the departure that loses it — retires it, and
// then no event or queue refers to the record any more. A frame no longer
// listed (orphaned by DropInflight) is left alone.
func (n *Network) retire(f *netFlight) {
	if !f.linked {
		return
	}
	n.inflight.remove(f)
	if len(n.free) < maxFreeFlights {
		*f = netFlight{deliver: f.deliver}
		n.free = append(n.free, f)
	}
}

// departHead is the head frame of q leaving its TX queue in its owner's
// slot: queueing stats close, the next head's departure and the frame's
// delivery are armed, the slot hook fires, and a lost frame dies here — at
// the slot, observable — instead of silently never arriving. The slot and
// drop hooks hit the sender's own board.
func (n *Network) departHead(q *Sender, now uint64) {
	n.mu.Lock()
	f := q.pop()
	if f == nil {
		// Orphaned by DropInflight; the kernel is about to be restored.
		n.mu.Unlock()
		return
	}
	f.departed = true
	q.hasStats = true
	st := &q.stats
	st.Queued--
	if wait := f.departAt - f.enq; wait > st.WorstQueueNs {
		st.WorstQueueNs = wait
	}
	if next := q.head; next != nil {
		n.K.arm(next.departAt, next.enq, next.departSeq, q.depart)
	}
	// The hooks see copies: a lost frame's record is retired for reuse.
	signal, slot, lost := f.signal, f.slot, f.lost
	var total uint64
	if lost {
		n.retire(f)
		st.Dropped++
		n.Dropped++
		total = st.Dropped
	} else {
		n.K.arm(f.at, f.enq, f.seq, f.deliver)
	}
	n.mu.Unlock()
	if n.OnSlot != nil {
		n.OnSlot(now, q.name, signal, slot)
	}
	if lost && n.OnDrop != nil {
		n.OnDrop(now, q.name, signal, total)
	}
}

// deliver lands one frame and retires its in-flight record.
func (n *Network) deliver(f *netFlight) {
	n.mu.Lock()
	dst, signal, v := f.dst, f.signal, f.v
	if f.from != nil && n.sched != nil {
		f.from.hasStats = true
		f.from.stats.Delivered++
	}
	n.retire(f)
	n.mu.Unlock()
	dst.Set(signal, v)
}

// DropInflight discards every frame queued or on the wire without
// delivering it; every TX queue depth drops to zero with them. It exists for the state-forking path: a campaign variant
// that re-parameterises the bus must SetSchedule before Restore, and
// SetSchedule refuses while the previous run's frames are still in
// flight. Dropping is only sound when the kernel is about to be Restored
// too — the orphaned departure/delivery events die with the cleared event
// queue.
func (n *Network) DropInflight() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inflight.clear()
	n.clearQueues()
	for _, q := range n.senders {
		q.stats.Queued = 0
	}
}

// clearQueues empties every TX queue (mu held by the caller).
func (n *Network) clearQueues() {
	for _, q := range n.owners {
		q.head, q.tail = nil, nil
	}
}

// SnapshotKernel is K.Snapshot with the schedule instants of the events
// the network holds back from the heap added to SchedAts: the departures
// queued behind each head and the deliveries of frames not yet departed.
// Every one of them was scheduled at its frame's enqueue instant. The
// result is exactly what K.Snapshot returned when every queued event sat
// in the heap, so checkpoint bytes do not depend on how much of the
// backlog is armed.
func (n *Network) SnapshotKernel() KernelState {
	st := n.K.Snapshot()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, q := range n.owners {
		if q.head == nil {
			continue
		}
		if st.SchedAts == nil {
			st.SchedAts = map[uint64]uint64{}
		}
		for f := q.head; f != nil; f = f.qnext {
			st.SchedAts[f.departSeq] = f.enq
			if !f.lost {
				st.SchedAts[f.seq] = f.enq
			}
		}
	}
	return st
}

// Inflight returns the number of frames queued or on the wire.
func (n *Network) Inflight() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight.n
}

// Queued returns the number of frames awaiting departure in TX queues:
// the sum of the per-node queue depths.
func (n *Network) Queued() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	queued := 0
	for _, q := range n.senders {
		queued += q.stats.Queued
	}
	return queued
}

// Stats returns node's TX accounting. ok is false when the bus does not
// know the node — no schedule is installed, the name is misspelled, or the
// node owns no slot and never enqueued a frame. That case used to return a
// zero BusStats, indistinguishable from a slot owner with no traffic yet;
// slot owners are pre-registered at SetSchedule so their zero stats read
// as genuine "no traffic".
func (n *Network) Stats(node string) (BusStats, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q, ok := n.senders[node]; ok && q.hasStats {
		return q.stats, true
	}
	return BusStats{}, false
}

// FlightState is the portable form of one queued or in-flight frame.
type FlightState struct {
	Signal string        `json:"signal"`
	Val    value.Encoded `json:"val"`
	At     uint64        `json:"at"`
	Seq    uint64        `json:"seq"`
	Dst    string        `json:"dst"`

	Src       string `json:"src,omitempty"`
	Enq       uint64 `json:"enq,omitempty"`
	Slot      uint64 `json:"slot,omitempty"`
	DepartAt  uint64 `json:"departAt,omitempty"`
	DepartSeq uint64 `json:"departSeq,omitempty"`
	Departed  bool   `json:"departed,omitempty"`
	Lost      bool   `json:"lost,omitempty"`
}

// NetworkState is the portable form of a Network: counters, every frame
// queued or on the wire, and — under a TDMA schedule — the RNG counter,
// per-node slot cursors and TX stats, so a restore lands mid-cycle with
// the identical queue, phase and future jitter/loss pattern. The schedule
// itself is configuration (re-installed by the owner before Restore); it
// is captured only to cross-check compatibility.
type NetworkState struct {
	LatencyNs uint64        `json:"latencyNs"`
	Sent      uint64        `json:"sent"`
	Dropped   uint64        `json:"dropped,omitempty"`
	Flights   []FlightState `json:"flights,omitempty"`

	RNG    uint64              `json:"rng,omitempty"`
	Cursor map[string]uint64   `json:"cursor,omitempty"`
	Stats  map[string]BusStats `json:"stats,omitempty"`
	Sched  *BusSchedule        `json:"sched,omitempty"`
	// DeliverySeq is the delivery counter (seq = DeliveryBase + i): part of
	// the deterministic schedule, since future deliveries continue the
	// numbering.
	DeliverySeq uint64 `json:"deliverySeq,omitempty"`
}

// Snapshot captures the network counters and every frame queued or in
// flight. It fails if a frame's destination store was never Bound — an
// unnamed destination cannot be re-resolved at restore time.
func (n *Network) Snapshot() (NetworkState, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := NetworkState{
		LatencyNs: n.LatencyNs, Sent: n.Sent, Dropped: n.Dropped,
		RNG: n.rng, Sched: n.sched, DeliverySeq: n.dseq,
	}
	for f := n.inflight.head; f != nil; f = f.next {
		name, ok := n.names[f.dst]
		if !ok {
			return NetworkState{}, fmt.Errorf("dtm: in-flight frame %q to unbound store", f.signal)
		}
		var src string
		if f.from != nil {
			src = f.from.name
		}
		st.Flights = append(st.Flights, FlightState{
			Signal: f.signal, Val: value.Encode(f.v), At: f.at, Seq: f.seq, Dst: name,
			Src: src, Enq: f.enq, Slot: f.slot,
			DepartAt: f.departAt, DepartSeq: f.departSeq,
			Departed: f.departed, Lost: f.lost,
		})
	}
	for name, q := range n.senders {
		if q.hasCursor {
			if st.Cursor == nil {
				st.Cursor = map[string]uint64{}
			}
			st.Cursor[name] = q.cursor
		}
		if q.hasStats {
			if st.Stats == nil {
				st.Stats = map[string]BusStats{}
			}
			st.Stats[name] = q.stats
		}
	}
	return st, nil
}

// Restore rewinds the network: counters, RNG, slot cursors and stats reset
// to the snapshot, and every recorded frame re-arms its pending events —
// the departure of a still-queued frame, the delivery of a surviving one —
// at their original instants and kernel sequence positions. The kernel
// must have been Restored (queue cleared) first, and any TDMA schedule
// re-installed via SetSchedule.
func (n *Network) Restore(st NetworkState) error {
	if st.Sched != nil {
		if n.sched == nil {
			return fmt.Errorf("dtm: restore of TDMA network state onto constant-latency network")
		}
		// The installed schedule must be exactly the captured one — slot
		// owners and order, lengths, gap, jitter, loss and seed. Anything
		// weaker (count + cycle length) would let a swapped-owner or
		// re-parameterised schedule restore cleanly and silently diverge.
		have, err := json.Marshal(n.sched)
		if err != nil {
			return err
		}
		want, err := json.Marshal(st.Sched)
		if err != nil {
			return err
		}
		if !bytes.Equal(have, want) {
			return fmt.Errorf("dtm: restore of TDMA state with incompatible schedule (captured %s, installed %s)", want, have)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.LatencyNs = st.LatencyNs
	n.Sent = st.Sent
	n.Dropped = st.Dropped
	n.rng = st.RNG
	n.dseq = st.DeliverySeq
	for _, q := range n.senders {
		q.cursor, q.hasCursor = 0, false
		q.stats, q.hasStats = BusStats{}, false
	}
	for name, c := range st.Cursor {
		q := n.sender(name)
		q.cursor, q.hasCursor = c, true
	}
	for name, bs := range st.Stats {
		q := n.sender(name)
		q.stats, q.hasStats = bs, true
	}
	n.inflight.clear()
	n.clearQueues()
	for _, fs := range st.Flights {
		dst, ok := n.stores[fs.Dst]
		if !ok {
			return fmt.Errorf("dtm: restore frame %q to unknown store %q", fs.Signal, fs.Dst)
		}
		v, err := value.Decode(fs.Val)
		if err != nil {
			return fmt.Errorf("dtm: restore frame %q: %w", fs.Signal, err)
		}
		f := n.newFlight()
		f.signal, f.v, f.at, f.seq, f.dst = fs.Signal, v, fs.At, fs.Seq, dst
		if fs.Src != "" {
			f.from = n.sender(fs.Src)
		}
		f.enq, f.slot = fs.Enq, fs.Slot
		f.departAt, f.departSeq = fs.DepartAt, fs.DepartSeq
		f.departed, f.lost = fs.Departed, fs.Lost
		n.inflight.push(f)
		tdma := f.from != nil && n.sched != nil
		queued := tdma && !f.departed
		if queued {
			// The queue is rebuilt in send order; only its head is armed.
			// Events re-armed or held back here have their identity on the
			// flight record, so their restore-time schedule entries go.
			q := f.from
			if len(q.slots) == 0 {
				return fmt.Errorf("dtm: restore frame %q queued by %q, which owns no slot", fs.Signal, fs.Src)
			}
			if q.push(f) {
				n.K.arm(f.departAt, f.enq, f.departSeq, q.depart)
			} else {
				n.K.forget(f.departSeq)
			}
		}
		if !tdma || !f.lost {
			// Deliveries re-arm with their full explicit identity (the
			// enqueue instant is on the flight record); a queued frame's
			// delivery is armed when it departs.
			n.K.forget(f.seq)
			if queued {
				continue
			}
			if err := n.K.ScheduleAt(f.at, f.enq, f.seq, f.deliver); err != nil {
				return err
			}
		}
	}
	return nil
}
