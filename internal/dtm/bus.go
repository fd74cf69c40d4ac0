package dtm

// The communication medium between nodes. Two models share one Network:
//
//   - Constant latency (default): every frame is delivered LatencyNs after
//     Send — the seed behaviour, byte-identical to the original goldens.
//   - Time-triggered bus (BusSchedule installed): a TTP/FlexRay-style TDMA
//     cycle of named sender slots. SendFrom enqueues into the sender's TX
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
// and the event order is exactly that of arming everything at send. Where
// deliveries are armed depends on the executor:
//
//   - Shared kernel (serial): a frame's delivery is armed when it departs,
//     with its (arrival, enqueue instant, delivery seq) identity fixed at
//     send; a lost frame never arms one. The heap holds O(nodes) network
//     events, however deep the backlog.
//   - Per-node kernels (parallel): deliveries are buffered at send and
//     minted into the destination kernel at the next barrier
//     (FlushDeliveries), as before. Holding one back until its departure
//     could land it inside a window DeliveryBound computed without it.
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
// increments in send order (the same order a shared serial kernel would
// have assigned their seqs in), kept in a range no kernel counter can ever
// reach so the two number spaces cannot collide when delivery events are
// minted into a consumer node's own kernel.
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
	// OnSend, when set, gates every identified SendFrom before it touches
	// any shared state. The parallel cluster installs its send arbiter here:
	// the hook blocks the calling worker until every other node's event
	// frontier has passed the sender's current event, so RNG draws, slot
	// cursor claims and delivery sequence numbers are handed out in exactly
	// the virtual-time order a serial shared kernel executes the sends in.
	OnSend func(src string)

	sched  *BusSchedule
	table  slotTable
	owners []*txNode          // distinct slot owners, in first-slot order
	tx     map[string]*txNode // slot owner name -> its TX side
	rng    uint64
	cursor map[string]uint64 // per-node next claimable global slot index
	stats  map[string]*BusStats

	names  map[*Store]string
	stores map[string]*Store
	// inflight lists the frames queued or on the wire in send order, linked
	// through the frames themselves so a frame retires in O(1).
	inflight flightList

	// mu guards the cross-node shared state above (counters, RNG, cursors,
	// stats, the in-flight list, dseq and the delivery buffer) when node
	// kernels advance on concurrent goroutines. Uncontended in serial mode.
	mu sync.Mutex
	// kernels maps node name -> that node's kernel when the owning cluster
	// executes nodes in parallel; nil means everything runs on K. Departure
	// events are scheduled on the sending node's kernel, deliveries are
	// minted into the destination node's kernel at the next barrier.
	kernels map[string]*Kernel
	// dseq numbers deliveries in send order (seq = DeliveryBase + dseq).
	dseq uint64
	// pending buffers deliveries created during a parallel window; the
	// barrier flushes them into consumer kernels (FlushDeliveries) — a
	// concurrent heap push into a running kernel would race.
	pending []*netFlight
	// free holds frame records retired by their own events, for reuse.
	free []*netFlight
}

// SetNodeKernels switches the network into parallel-cluster mode: each
// node's events (departures, deliveries) are scheduled on its own kernel,
// and deliveries created mid-window are buffered until FlushDeliveries.
// Pass nil to return to the single shared kernel K.
func (n *Network) SetNodeKernels(kernels map[string]*Kernel) {
	n.kernels = kernels
}

// kernelFor resolves the kernel a node's events run on.
func (n *Network) kernelFor(node string) *Kernel {
	if n.kernels != nil {
		if k, ok := n.kernels[node]; ok {
			return k
		}
	}
	return n.K
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
	src       string // sending node
	enq       uint64 // enqueue instant
	slot      uint64 // global index of the departure slot
	departAt  uint64
	departSeq uint64
	departed  bool
	lost      bool
}

// txNode is one slot owner's transmit side: its slot indices within the
// cycle and its TX queue of undeparted frames in send order — which is
// departure order. Only the head's departure event is in a kernel heap.
type txNode struct {
	name       string
	slots      []uint64 // ascending
	head, tail *netFlight
	// depart is the callback of every departure event of this owner: it
	// departs the head.
	depart func(now uint64)
}

// push appends f to the queue; it reports whether f is the new head.
func (q *txNode) push(f *netFlight) bool {
	f.qnext = nil
	if q.tail == nil {
		q.head, q.tail = f, f
		return true
	}
	q.tail.qnext, q.tail = f, f
	return false
}

// pop removes and returns the head (nil when empty).
func (q *txNode) pop() *netFlight {
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
		names:  map[*Store]string{},
		stores: map[string]*Store{},
	}
}

// SetSchedule installs (or, with nil, removes) the TDMA bus schedule.
// LatencyNs becomes the propagation delay after departure. Installing a
// schedule resets the jitter/loss RNG to the schedule's seed; it is
// rejected while frames are in flight (their timing is already committed).
func (n *Network) SetSchedule(s *BusSchedule) error {
	if n.inflight.n > 0 {
		return fmt.Errorf("dtm: cannot change bus schedule with %d frames in flight", n.inflight.n)
	}
	if s == nil {
		n.sched, n.table, n.owners, n.tx = nil, slotTable{}, nil, nil
		return nil
	}
	if err := s.Validate(); err != nil {
		return err
	}
	n.sched = s
	n.table = newSlotTable(s)
	n.rng = s.Seed
	n.cursor = map[string]uint64{}
	if n.stats == nil {
		n.stats = map[string]*BusStats{}
	}
	// Pre-register every slot owner so Stats can tell "no traffic yet"
	// (zero stats, ok) from "not on this bus" (ok=false).
	n.owners, n.tx = nil, map[string]*txNode{}
	for i, sl := range s.Slots {
		q, ok := n.tx[sl.Owner]
		if !ok {
			q = &txNode{name: sl.Owner}
			q.depart = func(now uint64) { n.departHead(q, now) }
			n.tx[sl.Owner] = q
			n.owners = append(n.owners, q)
		}
		q.slots = append(q.slots, uint64(i))
		n.nodeStats(sl.Owner)
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

// Send delivers signal=v into the destination store after the latency —
// the constant-latency path, kept verbatim for senders with no identity.
func (n *Network) Send(signal string, v value.Value, dst *Store) {
	n.SendFrom("", signal, v, dst)
}

// SendFrom submits a frame on behalf of sending node src. Without a bus
// schedule (or with an anonymous sender) it behaves exactly like Send:
// one delivery LatencyNs from now. Under a schedule the frame joins src's
// TX queue and departs in src's next free slot — its departure instant,
// release jitter, loss outcome and event identities are all decided
// (deterministically) here, so a snapshot taken at any later instant
// carries the committed timing. Only a frame that heads the queue has its
// departure armed now; see the package comment for where deliveries are
// armed.
//
// Deliveries are numbered from a dedicated counter in send order
// (DeliveryBase + dseq) instead of consuming a kernel seq: the identity is
// then kernel-independent, so the parallel cluster — whose sends are
// arbitrated into exactly the virtual-time order a serial run executes
// them in — mints the delivery into the destination node's kernel with the
// same (arrival, enqueue instant, seq) ordering key a shared kernel would
// have used. In parallel mode the delivery is buffered until the next
// barrier (FlushDeliveries); the departure always lives on the sending
// node's kernel, which is the goroutine running this call.
func (n *Network) SendFrom(src, signal string, v value.Value, dst *Store) {
	if src != "" && n.OnSend != nil {
		n.OnSend(src)
	}
	kSrc := n.kernelFor(src)
	now := kSrc.Now()
	if n.sched == nil || src == "" {
		n.mu.Lock()
		n.Sent++
		f := n.newFlight()
		f.signal, f.v, f.enq, f.at, f.dst = signal, v, now, now+n.LatencyNs, dst
		f.seq = DeliveryBase + n.dseq
		n.dseq++
		n.inflight.push(f)
		if n.kernels != nil {
			n.pending = append(n.pending, f)
		} else {
			_ = n.K.ScheduleAt(f.at, now, f.seq, f.deliver)
		}
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.Sent++
	st := n.nodeStats(src)
	st.Enqueued++
	q := n.tx[src]
	if q == nil {
		// A sender owning no slot can never transmit; the frame is dropped
		// at enqueue. BuildCluster validates producers upfront, so this is
		// only reachable on hand-built networks.
		st.Dropped++
		n.Dropped++
		total := st.Dropped
		n.mu.Unlock()
		if n.OnDrop != nil {
			n.OnDrop(now, src, signal, total)
		}
		return
	}
	abs := n.table.nextOwned(q.slots, n.cursor[src], now)
	n.cursor[src] = abs + 1 // one frame per slot
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
	f.src, f.enq, f.slot, f.departAt, f.at = src, now, abs, dep, dep+n.LatencyNs
	if n.sched.LossPerMille > 0 {
		f.lost = n.rand()%1000 < uint64(n.sched.LossPerMille)
	}
	f.seq = DeliveryBase + n.dseq
	n.dseq++
	f.departSeq = kSrc.ReserveSeq()
	n.inflight.push(f)
	st.Queued++
	if q.push(f) {
		kSrc.arm(f.departAt, f.enq, f.departSeq, q.depart)
	}
	if n.kernels != nil && !f.lost {
		n.pending = append(n.pending, f)
	}
	n.mu.Unlock()
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
// caller) and, when reuse is set, keeps its record for newFlight. Only the
// event that ends a frame — its delivery, or the departure that loses it
// — retires it, and reuse is set only when no event, queue or buffer can
// refer to the record any more. A frame no longer listed (orphaned by
// DropInflight) is left alone.
func (n *Network) retire(f *netFlight, reuse bool) {
	if !f.linked {
		return
	}
	n.inflight.remove(f)
	if reuse && len(n.free) < maxFreeFlights {
		*f = netFlight{deliver: f.deliver}
		n.free = append(n.free, f)
	}
}

// FlushDeliveries mints every delivery buffered during a parallel window
// into its destination node's kernel, in send order, with the explicit
// (arrival, enqueue instant, delivery seq) identity fixed at send time.
// The cluster calls it at every barrier, when no node kernel is running.
func (n *Network) FlushDeliveries() error {
	n.mu.Lock()
	pend := n.pending
	n.pending = nil
	n.mu.Unlock()
	for _, f := range pend {
		k := n.K
		if name, ok := n.names[f.dst]; ok {
			k = n.kernelFor(name)
		}
		if err := k.ScheduleAt(f.at, f.enq, f.seq, f.deliver); err != nil {
			return err
		}
	}
	return nil
}

// DeliveryBound returns the earliest instant a frame not yet submitted at
// time from could possibly arrive anywhere — the conservative lookahead
// the parallel cluster uses as its barrier horizon. Under a TDMA schedule
// no sender departs before its next claimable slot opens (release jitter
// only delays departures within the slot), so the bound is the earliest
// such slot start across all owners plus propagation; without a schedule
// it is from + LatencyNs. Cursors only advance, so a bound computed at a
// window's start stays valid for the whole window.
func (n *Network) DeliveryBound(from uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sched == nil {
		return from + n.LatencyNs
	}
	// A frame submitted at t >= from departs at max(slot start, t), so no
	// departure precedes max(start of the next claimable slot, from).
	best := ^uint64(0)
	for _, q := range n.owners {
		dep := max(n.table.start(n.table.nextOwned(q.slots, n.cursor[q.name], from)), from)
		best = min(best, dep+n.LatencyNs)
	}
	return best
}

// departHead is the head frame of q leaving its TX queue in its owner's
// slot: queueing stats close, the next head's departure is armed, on a
// shared kernel the frame's delivery is armed, the slot hook fires, and a
// lost frame dies here — at the slot, observable — instead of silently
// never arriving. It runs on the sending node's kernel (and, in parallel
// mode, its goroutine), so the slot/drop hooks hit the sender's own board.
func (n *Network) departHead(q *txNode, now uint64) {
	n.mu.Lock()
	f := q.pop()
	if f == nil {
		// Orphaned by DropInflight; the kernel is about to be restored.
		n.mu.Unlock()
		return
	}
	f.departed = true
	st := n.nodeStats(q.name)
	st.Queued--
	if wait := f.departAt - f.enq; wait > st.WorstQueueNs {
		st.WorstQueueNs = wait
	}
	k := n.kernelFor(q.name)
	if next := q.head; next != nil {
		k.arm(next.departAt, next.enq, next.departSeq, q.depart)
	}
	// The hooks see copies: in parallel mode another node may deliver the
	// frame and its record be reused while they run.
	signal, slot, lost := f.signal, f.slot, f.lost
	var total uint64
	if lost {
		n.retire(f, true)
		st.Dropped++
		n.Dropped++
		total = st.Dropped
	} else if n.kernels == nil {
		k.arm(f.at, f.enq, f.seq, f.deliver)
	}
	n.mu.Unlock()
	if n.OnSlot != nil {
		n.OnSlot(now, q.name, signal, slot)
	}
	if lost && n.OnDrop != nil {
		n.OnDrop(now, q.name, signal, total)
	}
}

// deliver lands one frame and retires its in-flight record. It runs on the
// destination node's kernel, so the store write (and anything it triggers
// on the consuming board) stays node-local.
func (n *Network) deliver(f *netFlight) {
	n.mu.Lock()
	dst, signal, v := f.dst, f.signal, f.v
	tdma := f.src != "" && n.sched != nil
	if tdma {
		n.nodeStats(f.src).Delivered++
	}
	// Per-node kernels order a frame's departure and delivery in virtual
	// time only: the destination may deliver before the sender has run the
	// departure, and the record stays in its TX queue until it does.
	n.retire(f, !tdma || f.departed)
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
	n.pending = nil
	for _, st := range n.stats {
		st.Queued = 0
	}
}

// clearQueues empties every TX queue (mu held by the caller).
func (n *Network) clearQueues() {
	for _, q := range n.owners {
		q.head, q.tail = nil, nil
	}
}

// SnapshotKernel is k.Snapshot with the schedule instants of the events
// the network holds back from k's heap added to SchedAts: the departures
// queued behind each head on k and, on a shared kernel, the deliveries of
// frames not yet departed. Every one of them was scheduled at its frame's
// enqueue instant. The result is exactly what k.Snapshot returned when
// every queued event sat in the heap, so checkpoint bytes do not depend
// on how much of the backlog is armed.
func (n *Network) SnapshotKernel(k *Kernel) KernelState {
	st := k.Snapshot()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, q := range n.owners {
		if q.head == nil || n.kernelFor(q.name) != k {
			continue
		}
		if st.SchedAts == nil {
			st.SchedAts = map[uint64]uint64{}
		}
		for f := q.head; f != nil; f = f.qnext {
			st.SchedAts[f.departSeq] = f.enq
			if n.kernels == nil && !f.lost {
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
	q := 0
	for _, st := range n.stats {
		q += st.Queued
	}
	return q
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
	if st, ok := n.stats[node]; ok {
		return *st, true
	}
	return BusStats{}, false
}

func (n *Network) nodeStats(node string) *BusStats {
	if n.stats == nil {
		n.stats = map[string]*BusStats{}
	}
	st, ok := n.stats[node]
	if !ok {
		st = &BusStats{}
		n.stats[node] = st
	}
	return st
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
	if len(n.pending) > 0 {
		return NetworkState{}, fmt.Errorf("dtm: snapshot with %d unflushed parallel deliveries (not a barrier)", len(n.pending))
	}
	st := NetworkState{
		LatencyNs: n.LatencyNs, Sent: n.Sent, Dropped: n.Dropped,
		RNG: n.rng, Sched: n.sched, DeliverySeq: n.dseq,
	}
	for f := n.inflight.head; f != nil; f = f.next {
		name, ok := n.names[f.dst]
		if !ok {
			return NetworkState{}, fmt.Errorf("dtm: in-flight frame %q to unbound store", f.signal)
		}
		st.Flights = append(st.Flights, FlightState{
			Signal: f.signal, Val: value.Encode(f.v), At: f.at, Seq: f.seq, Dst: name,
			Src: f.src, Enq: f.enq, Slot: f.slot,
			DepartAt: f.departAt, DepartSeq: f.departSeq,
			Departed: f.departed, Lost: f.lost,
		})
	}
	if len(n.cursor) > 0 {
		st.Cursor = make(map[string]uint64, len(n.cursor))
		for k, v := range n.cursor {
			st.Cursor[k] = v
		}
	}
	if len(n.stats) > 0 {
		st.Stats = make(map[string]BusStats, len(n.stats))
		for k, v := range n.stats {
			st.Stats[k] = *v
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
	n.pending = nil
	n.cursor = map[string]uint64{}
	for k, v := range st.Cursor {
		n.cursor[k] = v
	}
	n.stats = map[string]*BusStats{}
	for k, v := range st.Stats {
		v := v
		n.stats[k] = &v
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
		f.src, f.enq, f.slot = fs.Src, fs.Enq, fs.Slot
		f.departAt, f.departSeq = fs.DepartAt, fs.DepartSeq
		f.departed, f.lost = fs.Departed, fs.Lost
		n.inflight.push(f)
		tdma := f.src != "" && n.sched != nil
		queued := tdma && !f.departed
		if queued {
			// The queue is rebuilt in send order; only its head is armed.
			// Events re-armed or held back here have their identity on the
			// flight record, so their restore-time schedule entries go.
			q := n.tx[f.src]
			if q == nil {
				return fmt.Errorf("dtm: restore frame %q queued by %q, which owns no slot", fs.Signal, f.src)
			}
			k := n.kernelFor(f.src)
			if q.push(f) {
				k.arm(f.departAt, f.enq, f.departSeq, q.depart)
			} else {
				k.forget(f.departSeq)
			}
		}
		if !tdma || !f.lost {
			// Deliveries re-arm with their full explicit identity (the
			// enqueue instant is on the flight record), on the destination
			// node's kernel in parallel mode. On a shared kernel a queued
			// frame's delivery is armed when it departs.
			dk := n.K
			if name, ok := n.names[f.dst]; ok {
				dk = n.kernelFor(name)
			}
			dk.forget(f.seq)
			if queued && n.kernels == nil {
				continue
			}
			if err := dk.ScheduleAt(f.at, f.enq, f.seq, f.deliver); err != nil {
				return err
			}
		}
	}
	return nil
}
