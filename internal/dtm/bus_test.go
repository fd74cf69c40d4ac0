package dtm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func TestBusScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		s    BusSchedule
		ok   bool
	}{
		{"empty", BusSchedule{}, false},
		{"no owner", BusSchedule{Slots: []BusSlot{{LenNs: 10}}}, false},
		{"zero len", BusSchedule{Slots: []BusSlot{{Owner: "a"}}}, false},
		{"jitter >= slot", BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 10}}, JitterNs: 10}, false},
		{"loss > 1000", BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 10}}, LossPerMille: 1001}, false},
		{"good", BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 10}, {Owner: "b", LenNs: 20}}, GapNs: 5, JitterNs: 9}, true},
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestBusScheduleSlotGeometry(t *testing.T) {
	s := &BusSchedule{
		Slots: []BusSlot{{Owner: "a", LenNs: 100}, {Owner: "b", LenNs: 50}, {Owner: "a", LenNs: 30}},
		GapNs: 20,
	}
	if got := s.CycleNs(); got != 240 {
		t.Fatalf("CycleNs = %d, want 240", got)
	}
	// Slot starts: a@0, b@120, a@190; next cycle at 240.
	for _, c := range []struct{ abs, start uint64 }{
		{0, 0}, {1, 120}, {2, 190}, {3, 240}, {4, 360}, {5, 430},
	} {
		if got := s.SlotStart(c.abs); got != c.start {
			t.Errorf("SlotStart(%d) = %d, want %d", c.abs, got, c.start)
		}
	}
	for _, c := range []struct {
		t     uint64
		owner string
		abs   uint64
		ok    bool
	}{
		{0, "a", 0, true}, {99, "a", 0, true}, {100, "", 0, false}, // gap
		{120, "b", 1, true}, {219, "a", 2, true}, {225, "", 0, false}, {240, "a", 3, true},
	} {
		owner, abs, ok := s.SlotAt(c.t)
		if owner != c.owner || ok != c.ok || (ok && abs != c.abs) {
			t.Errorf("SlotAt(%d) = (%q,%d,%v), want (%q,%d,%v)", c.t, owner, abs, ok, c.owner, c.abs, c.ok)
		}
	}
	if !s.Owns("a") || !s.Owns("b") || s.Owns("c") {
		t.Error("Owns wrong")
	}
}

// busRig is a network under a TDMA schedule with bound stores and a
// delivery log.
type busRig struct {
	k   *Kernel
	n   *Network
	dst *Store
	log []string
}

func newBusRig(t *testing.T, s *BusSchedule, latency uint64) *busRig {
	t.Helper()
	r := &busRig{k: NewKernel()}
	r.n = NewNetwork(r.k, latency)
	if err := r.n.SetSchedule(s); err != nil {
		t.Fatal(err)
	}
	r.dst = NewStore(r.k.Now)
	r.dst.OnChange = func(now uint64, sig string, old, new value.Value) {
		r.log = append(r.log, fmt.Sprintf("%d %s=%s", now, sig, new))
	}
	r.n.Bind("dst", r.dst)
	return r
}

// TestTDMADepartureBoundBySlotPhase pins the core TDMA property: frames
// depart only in their sender's slots, so the end-to-end delivery instant
// is slot start + propagation, regardless of when the publish happened.
func TestTDMADepartureBoundBySlotPhase(t *testing.T) {
	s := &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 100}, {Owner: "b", LenNs: 100}}, GapNs: 0}
	r := newBusRig(t, s, 10) // cycle 200: a@[0,100), b@[100,200)

	send := func(at uint64, owner, sig string, v float64) {
		r.k.RunUntil(at)
		r.n.SendFrom(owner, sig, value.F(v), r.dst)
	}
	send(5, "a", "x", 1)   // inside a's slot: departs now (5), arrives 15
	send(30, "b", "y", 2)  // outside b's slot: waits for b@100, arrives 110
	send(150, "b", "y", 3) // b@100 already carried a frame: next b slot 300, arrives 310
	send(160, "a", "x", 4) // a's next slot is 200, arrives 210
	r.k.RunUntil(1000)

	if got := fmt.Sprint(r.log); got != "[15 x=1 110 y=2 210 x=4 310 y=3]" {
		t.Fatalf("deliveries = %v", r.log)
	}
	if r.n.Sent != 4 || r.n.Dropped != 0 {
		t.Fatalf("sent=%d dropped=%d", r.n.Sent, r.n.Dropped)
	}
	for _, node := range []string{"a", "b"} {
		st, ok := r.n.Stats(node)
		if !ok {
			t.Fatalf("node %s unknown to the bus", node)
		}
		if st.Enqueued != 2 || st.Delivered != 2 || st.Queued != 0 {
			t.Fatalf("stats[%s] = %+v", node, st)
		}
	}
}

// TestTDMAContentionQueues pins the one-frame-per-slot rule: a burst from
// one sender spreads over consecutive owned slots, FIFO, with queue depth
// and worst queueing delay accounted.
func TestTDMAContentionQueues(t *testing.T) {
	s := &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 50}, {Owner: "b", LenNs: 50}}, GapNs: 0}
	r := newBusRig(t, s, 0) // a's slots start at 0, 100, 200, ...

	r.k.RunUntil(10)
	for i := 0; i < 3; i++ {
		r.n.SendFrom("a", fmt.Sprintf("s%d", i), value.I(int64(i)), r.dst)
	}
	if st, _ := r.n.Stats("a"); st.Queued != 3 {
		t.Fatalf("queue depth after burst = %d, want 3", st.Queued)
	}
	if q := r.n.Queued(); q != 3 {
		t.Fatalf("Queued() = %d", q)
	}
	r.k.RunUntil(1000)
	// First frame departs inside the open slot at 10; the next two wait for
	// a's slots at 100 and 200.
	if got := fmt.Sprint(r.log); got != "[10 s0=0 100 s1=1 200 s2=2]" {
		t.Fatalf("deliveries = %v", r.log)
	}
	st, _ := r.n.Stats("a")
	if st.WorstQueueNs != 190 {
		t.Fatalf("WorstQueueNs = %d, want 190 (enqueued at 10, departed at 200)", st.WorstQueueNs)
	}
	if st.Queued != 0 || st.Delivered != 3 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestTDMAUnownedSenderDrops(t *testing.T) {
	s := &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 50}}}
	r := newBusRig(t, s, 0)
	var drops []string
	r.n.OnDrop = func(now uint64, owner, sig string, total uint64) {
		drops = append(drops, fmt.Sprintf("%s/%s/%d", owner, sig, total))
	}
	r.n.SendFrom("ghost", "x", value.I(1), r.dst)
	r.k.RunUntil(100)
	ghost, ok := r.n.Stats("ghost")
	if !ok {
		t.Fatal("ghost enqueued a frame, so the bus must know it")
	}
	if len(r.log) != 0 || r.n.Dropped != 1 || ghost.Dropped != 1 {
		t.Fatalf("log=%v dropped=%d", r.log, r.n.Dropped)
	}
	if len(drops) != 1 || drops[0] != "ghost/x/1" {
		t.Fatalf("drops = %v", drops)
	}
}

// TestTDMAJitterDeterministic: with release jitter enabled, departures are
// delayed within [0, JitterNs] of the slot start, and two runs with the
// same seed produce identical instants.
func TestTDMAJitterDeterministic(t *testing.T) {
	run := func(seed uint64) []string {
		s := &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 100}}, GapNs: 100, JitterNs: 40, Seed: seed}
		r := newBusRig(t, s, 0)
		for i := 0; i < 8; i++ {
			r.k.RunUntil(uint64(i) * 200)
			r.n.SendFrom("a", "x", value.I(int64(i)), r.dst)
		}
		r.k.RunUntil(10_000)
		return append([]string(nil), r.log...)
	}
	a, b := run(7), run(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	c := run(8)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical jitter (suspicious)")
	}
	// Every delivery must land within JitterNs of its slot start.
	for i, line := range a {
		var at uint64
		var rest string
		if _, err := fmt.Sscanf(line, "%d %s", &at, &rest); err != nil {
			t.Fatal(err)
		}
		slot := uint64(i) * 200
		if at < slot || at > slot+40 {
			t.Fatalf("delivery %d at %d outside [%d, %d]", i, at, slot, slot+40)
		}
	}
}

// TestTDMAJitterClampedToSlot: a mid-slot publish near the slot end keeps
// its jittered departure inside the slot — release jitter may never bleed
// into the guard gap or another owner's slot.
func TestTDMAJitterClampedToSlot(t *testing.T) {
	s := &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 100}}, GapNs: 100, JitterNs: 40, Seed: 3}
	r := newBusRig(t, s, 0) // slots [0,100), [200,300), ... — zero propagation
	const sends = 32
	for i := uint64(0); i < sends; i++ {
		r.k.RunUntil(i*200 + 95) // 5 ns before the slot end
		r.n.SendFrom("a", "x", value.I(int64(i)), r.dst)
	}
	r.k.RunUntil(100_000)
	if len(r.log) != sends {
		t.Fatalf("deliveries = %d", len(r.log))
	}
	clamped := false
	for i, line := range r.log {
		var at uint64
		fmt.Sscanf(line, "%d", &at)
		slot := uint64(i) * 200
		if at < slot+95 || at > slot+99 {
			t.Fatalf("delivery %d at %d escaped its slot [%d, %d)", i, at, slot, slot+100)
		}
		if at == slot+99 {
			clamped = true
		}
	}
	if !clamped {
		t.Error("no draw exercised the slot-end clamp (weak seed for this test)")
	}
}

// TestTDMALossDeterministic: seeded per-slot loss drops a stable subset;
// sent = delivered + dropped and the drop hook reports cumulative totals.
func TestTDMALossDeterministic(t *testing.T) {
	run := func() (deliv int, drops uint64) {
		s := &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 100}}, GapNs: 0, LossPerMille: 400, Seed: 42}
		r := newBusRig(t, s, 5)
		for i := 0; i < 50; i++ {
			r.k.RunUntil(uint64(i) * 100)
			r.n.SendFrom("a", "x", value.I(int64(i)), r.dst)
		}
		r.k.RunUntil(100_000)
		st, _ := r.n.Stats("a")
		if st.Delivered+st.Dropped != st.Enqueued || st.Enqueued != 50 {
			t.Fatalf("conservation: %+v", st)
		}
		return len(r.log), st.Dropped
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("loss not deterministic: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if x1 == 0 || x1 == 50 {
		t.Fatalf("40%% loss dropped %d of 50 (degenerate)", x1)
	}
}

// TestBusConservationRandomSchedules is the property test: under random
// schedules, send times and senders (including unscheduled ones), every
// frame is exactly one of delivered, dropped — none linger once the bus
// drains.
func TestBusConservationRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	owners := []string{"n0", "n1", "n2", "n3"}
	for trial := 0; trial < 60; trial++ {
		s := &BusSchedule{
			GapNs:        uint64(rng.Intn(50)),
			LossPerMille: uint32(rng.Intn(1001)),
			Seed:         rng.Uint64(),
		}
		minLen := uint64(1 << 62)
		for i, cnt := 0, 1+rng.Intn(5); i < cnt; i++ {
			ln := uint64(10 + rng.Intn(200))
			if ln < minLen {
				minLen = ln
			}
			s.Slots = append(s.Slots, BusSlot{Owner: owners[rng.Intn(3)], LenNs: ln})
		}
		if minLen > 1 {
			s.JitterNs = uint64(rng.Intn(int(minLen)))
		}
		k := NewKernel()
		n := NewNetwork(k, uint64(rng.Intn(500)))
		if err := n.SetSchedule(s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dst := NewStore(k.Now)
		n.Bind("dst", dst)
		delivered := 0
		dst.OnChange = func(uint64, string, value.Value, value.Value) { delivered++ }
		sends := 1 + rng.Intn(40)
		at := uint64(0)
		for i := 0; i < sends; i++ {
			at += uint64(rng.Intn(300))
			k.RunUntil(at)
			// owners[3] never holds a slot: those frames must drop at enqueue.
			n.SendFrom(owners[rng.Intn(4)], fmt.Sprintf("s%d", i), value.I(int64(i)), dst)
		}
		for k.Step() {
		}
		var enq, del, drop uint64
		var queued int
		for _, o := range owners {
			st, _ := n.Stats(o)
			enq += st.Enqueued
			del += st.Delivered
			drop += st.Dropped
			queued += st.Queued
		}
		if enq != n.Sent || queued != 0 || n.Inflight() != 0 {
			t.Fatalf("trial %d: enq=%d sent=%d queued=%d inflight=%d", trial, enq, n.Sent, queued, n.Inflight())
		}
		if del+drop != n.Sent || drop != n.Dropped || int(del) != delivered {
			t.Fatalf("trial %d: sent=%d delivered=%d(%d observed) dropped=%d", trial, n.Sent, del, delivered, drop)
		}
	}
}

// TestTDMACheckpointMidCycle is the bus checkpoint round-trip table:
// snapshots taken mid-TDMA-cycle — with frames queued AND in flight —
// serialize, restore into a freshly built network in a "new process", and
// the continuation delivers byte-identically to the uninterrupted run.
func TestTDMACheckpointMidCycle(t *testing.T) {
	sched := func() *BusSchedule {
		return &BusSchedule{
			Slots: []BusSlot{{Owner: "a", LenNs: 100}, {Owner: "b", LenNs: 100}},
			GapNs: 50, JitterNs: 30, LossPerMille: 250, Seed: 99,
		}
	}
	// The scripted load: bursts from both senders so TX queues build up.
	// Sends land on the 40 ns grid so a continuation from any cut instant
	// replays the exact send script of the uninterrupted run.
	drive := func(r *busRig, from, to uint64) {
		from = (from + 39) / 40 * 40
		i := from / 40
		for at := from; at < to; at += 40 {
			r.k.RunUntil(at)
			owner := "a"
			if i%3 == 2 {
				owner = "b"
			}
			r.n.SendFrom(owner, fmt.Sprintf("s%d", i%7), value.I(int64(i)), r.dst)
			i++
		}
		r.k.RunUntil(to)
	}
	const end = 4000
	full := newBusRig(t, sched(), 120)
	drive(full, 0, end)
	for full.k.Step() {
	}

	for _, cut := range []uint64{170, 380, 1000, 2020} {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			orig := newBusRig(t, sched(), 120)
			drive(orig, 0, cut)
			if orig.n.Queued() == 0 || orig.n.Inflight() == orig.n.Queued() {
				t.Fatalf("cut %d not mid-cycle: queued=%d inflight=%d (want both queued and on-wire frames)",
					cut, orig.n.Queued(), orig.n.Inflight())
			}
			ks := orig.k.Snapshot()
			ns, err := orig.n.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(ns)
			if err != nil {
				t.Fatal(err)
			}

			// "Fresh process": a brand-new kernel/network/store, nothing
			// shared with the original but the serialized bytes.
			fresh := newBusRig(t, sched(), 120)
			fresh.k.Restore(ks)
			var decoded NetworkState
			if err := json.Unmarshal(blob, &decoded); err != nil {
				t.Fatal(err)
			}
			if err := fresh.n.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			fresh.log = nil // deliveries before the cut belong to the original run
			drive(fresh, cut, end)
			for fresh.k.Step() {
			}

			// The restored continuation must reproduce the uninterrupted
			// run's deliveries after the cut, and the final counters.
			var tail []string
			for _, line := range full.log {
				var at uint64
				fmt.Sscanf(line, "%d", &at)
				if at >= cut {
					tail = append(tail, line)
				}
			}
			if got, want := fmt.Sprint(fresh.log), fmt.Sprint(tail); got != want {
				t.Fatalf("post-restore deliveries diverge:\n got %s\nwant %s", got, want)
			}
			for _, node := range []string{"a", "b"} {
				got, gotOK := fresh.n.Stats(node)
				want, wantOK := full.n.Stats(node)
				if got != want || gotOK != wantOK {
					t.Fatalf("stats[%s]: restored %+v (ok=%v) vs full %+v (ok=%v)", node, got, gotOK, want, wantOK)
				}
			}
			if fresh.n.Sent != full.n.Sent || fresh.n.Dropped != full.n.Dropped {
				t.Fatalf("counters: sent %d/%d dropped %d/%d", fresh.n.Sent, full.n.Sent, fresh.n.Dropped, full.n.Dropped)
			}
		})
	}
}

// TestBusRestoreSchedMismatch: TDMA state refuses to land on a network
// whose schedule is absent or shaped differently.
func TestBusRestoreSchedMismatch(t *testing.T) {
	s := &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 100}}}
	r := newBusRig(t, s, 0)
	r.n.SendFrom("a", "x", value.I(1), r.dst)
	st, err := r.n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plainK := NewKernel()
	plain := NewNetwork(plainK, 0)
	plain.Bind("dst", NewStore(plainK.Now))
	if err := plain.Restore(st); err == nil {
		t.Fatal("restore of TDMA state onto constant-latency network should fail")
	}
	other := newBusRig(t, &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 100}, {Owner: "b", LenNs: 50}}}, 0)
	if err := other.n.Restore(st); err == nil {
		t.Fatal("restore onto incompatible schedule should fail")
	}
	// Same slot count and cycle length but a different owner: still
	// incompatible — the comparison is exact, not structural.
	swapped := newBusRig(t, &BusSchedule{Slots: []BusSlot{{Owner: "b", LenNs: 100}}}, 0)
	if err := swapped.n.Restore(st); err == nil {
		t.Fatal("restore onto swapped-owner schedule should fail")
	}
	// The exact schedule restores fine.
	same := newBusRig(t, &BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 100}}}, 0)
	if err := same.n.Restore(st); err != nil {
		t.Fatal(err)
	}
}

// TestSetScheduleGuards: schedule changes are rejected mid-flight, and the
// constant-latency default stays the exact seed behaviour.
func TestSetScheduleGuards(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k, 100)
	dst := NewStore(k.Now)
	n.Bind("dst", dst)
	n.Send("x", value.I(1), dst)
	if err := n.SetSchedule(&BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 10}}}); err == nil {
		t.Fatal("SetSchedule with frames in flight should fail")
	}
	k.RunUntil(100)
	if got := dst.Get("x"); got.Int() != 1 {
		t.Fatalf("constant-latency delivery broken: %v", got)
	}
	if err := n.SetSchedule(&BusSchedule{Slots: []BusSlot{{Owner: "a", LenNs: 10}}}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetSchedule(nil); err != nil {
		t.Fatal(err)
	}
	if n.Schedule() != nil {
		t.Fatal("nil SetSchedule should uninstall")
	}
}

func BenchmarkBusSend(b *testing.B) {
	s := &BusSchedule{
		Slots: []BusSlot{{Owner: "a", LenNs: 1000}, {Owner: "b", LenNs: 1000}},
		GapNs: 100, JitterNs: 50, LossPerMille: 100, Seed: 1,
	}
	k := NewKernel()
	n := NewNetwork(k, 200)
	if err := n.SetSchedule(s); err != nil {
		b.Fatal(err)
	}
	dst := NewStore(k.Now)
	n.Bind("dst", dst)
	v := value.I(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendFrom("a", "x", v, dst)
		// Drain as we go so the in-flight list stays short (steady state).
		k.RunUntil(k.Now() + 2200)
	}
}

// TestRestoreArmsOnlyQueueHeads: a network restored mid-backlog rebuilds
// its TX queues, puts only each queue's head departure and the deliveries
// of departed frames in the heap, consumes every restore-time schedule
// entry of the events it re-arms or holds back, snapshots its kernel to
// the captured bytes, and continues exactly like the original.
func TestRestoreArmsOnlyQueueHeads(t *testing.T) {
	sched := func() *BusSchedule {
		return &BusSchedule{
			Slots: []BusSlot{{Owner: "a", LenNs: 50}, {Owner: "b", LenNs: 50}, {Owner: "c", LenNs: 50}},
			GapNs: 10, JitterNs: 5, LossPerMille: 300, Seed: 7,
		}
	}
	const cut, end = 2_000, 20_000
	rig := func() (*busRig, *[]string) {
		r := newBusRig(t, sched(), 120)
		drops := &[]string{}
		r.n.OnDrop = func(now uint64, owner, sig string, total uint64) {
			*drops = append(*drops, fmt.Sprintf("%d %s lost %s", now, owner, sig))
		}
		return r, drops
	}
	r, drops := rig()
	for i := 0; i < 150; i++ {
		r.k.RunUntil(uint64(i) * 10)
		r.n.SendFrom([]string{"a", "b", "c"}[i%3], fmt.Sprintf("s%03d", i), value.I(int64(i)), r.dst)
	}
	r.k.RunUntil(cut)
	ks, ns := r.n.SnapshotKernel(r.k), mustSnapshot(t, r.n)
	if r.n.Queued() < 60 {
		t.Fatalf("only %d frames queued at the cut; no backlog", r.n.Queued())
	}
	onWire := 0
	for _, f := range ns.Flights {
		if f.Departed && !f.Lost {
			onWire++
		}
	}
	logAt, dropsAt := len(r.log), len(*drops)
	r.k.RunUntil(end)

	fresh, freshDrops := rig()
	fresh.k.Restore(ks)
	if err := fresh.n.Restore(ns); err != nil {
		t.Fatal(err)
	}
	if n := len(fresh.k.rearmSched); n != 0 {
		t.Errorf("%d restore-time schedule entries left after the network re-armed", n)
	}
	if got, want := fresh.k.Pending(), 3+onWire; got != want {
		t.Errorf("%d events in the heap after restore, want %d (three queue heads, %d frames on the wire)", got, want, onWire)
	}
	again, _ := json.Marshal(fresh.n.SnapshotKernel(fresh.k))
	if want, _ := json.Marshal(ks); string(again) != string(want) {
		t.Errorf("restored kernel snapshots to\n%s\nwant\n%s", again, want)
	}
	fresh.k.RunUntil(end)
	if fmt.Sprint(fresh.log) != fmt.Sprint(r.log[logAt:]) || fmt.Sprint(*freshDrops) != fmt.Sprint((*drops)[dropsAt:]) {
		t.Errorf("restored network diverges:\n got %v %v\nwant %v %v", fresh.log, *freshDrops, r.log[logAt:], (*drops)[dropsAt:])
	}
	if len(fresh.log) == 0 || len(*freshDrops) == 0 {
		t.Fatal("nothing delivered or lost after the cut; the test lost its point")
	}
}

func mustSnapshot(t *testing.T, n *Network) NetworkState {
	t.Helper()
	st, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// BenchmarkBusBacklog times one send plus one departure on a TX queue
// held at a fixed depth (1k or 10k undeparted frames). Only the queue's
// head is armed in the kernel heap and deliveries are armed at departure,
// so ns/op must not grow with the depth.
func BenchmarkBusBacklog(b *testing.B) {
	for _, depth := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("queued=%d", depth), func(b *testing.B) {
			s := &BusSchedule{
				Slots: []BusSlot{{Owner: "a", LenNs: 1000}, {Owner: "b", LenNs: 1000}},
				GapNs: 100, JitterNs: 50, LossPerMille: 100, Seed: 1,
			}
			k := NewKernel()
			n := NewNetwork(k, 200)
			if err := n.SetSchedule(s); err != nil {
				b.Fatal(err)
			}
			dst := NewStore(k.Now)
			n.Bind("dst", dst)
			departed := 0
			n.OnSlot = func(uint64, string, string, uint64) { departed++ }
			v := value.I(7)
			for i := 0; i < depth; i++ {
				n.SendFrom("a", "x", v, dst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.SendFrom("a", "x", v, dst)
				for want := departed + 1; departed < want; {
					k.Step()
				}
			}
			b.StopTimer()
			if q := n.Queued(); q != depth {
				b.Fatalf("queue depth drifted to %d, want %d", q, depth)
			}
		})
	}
}

// TestInflightRetiresOutOfOrder: frames retire in an order unrelated to
// send order — lost at departure, delivered, or still queued behind a
// busy sender — yet every snapshot lists exactly the frames still queued
// or on the wire, in send order, and round-trips through Restore.
func TestInflightRetiresOutOfOrder(t *testing.T) {
	sched := func() *BusSchedule {
		return &BusSchedule{
			Slots: []BusSlot{{Owner: "a", LenNs: 50}, {Owner: "b", LenNs: 50}, {Owner: "c", LenNs: 50}},
			GapNs: 10, LossPerMille: 300, Seed: 7,
		}
	}
	r := newBusRig(t, sched(), 120)
	retired := map[string]bool{}
	r.dst.OnChange = func(now uint64, sig string, old, new value.Value) { retired[sig] = true }
	r.n.OnDrop = func(now uint64, owner, sig string, total uint64) { retired[sig] = true }

	var sent []string
	outOfOrder := false
	owners := []string{"a", "b", "c", "c", "b"} // c and b queue bursts
	for i := 0; i < 60; i++ {
		r.k.RunUntil(uint64(i) * 25)
		sig := fmt.Sprintf("s%02d", i)
		r.n.SendFrom(owners[i%len(owners)], sig, value.I(int64(i)), r.dst)
		sent = append(sent, sig)

		var want []string
		for _, s := range sent {
			if !retired[s] {
				want = append(want, s)
			} else if len(want) > 0 {
				outOfOrder = true // retired while an earlier send is still listed
			}
		}
		st, err := r.n.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range st.Flights {
			got = append(got, f.Signal)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after send %d: flights %v, want %v", i, got, want)
		}
		if r.n.Inflight() != len(want) {
			t.Fatalf("after send %d: Inflight() = %d, want %d", i, r.n.Inflight(), len(want))
		}
		queued := 0
		for _, f := range st.Flights {
			if !f.Departed {
				queued++
			}
		}
		if r.n.Queued() != queued {
			t.Fatalf("after send %d: Queued() = %d, flights say %d", i, r.n.Queued(), queued)
		}

		// Round trip: a fresh network restored from the snapshot lists the
		// same frames, and snapshots to the same bytes.
		fresh := newBusRig(t, sched(), 120)
		fresh.k.Restore(r.k.Snapshot())
		if err := fresh.n.Restore(st); err != nil {
			t.Fatal(err)
		}
		again, err := fresh.n.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(st)
		b, _ := json.Marshal(again)
		if string(a) != string(b) {
			t.Fatalf("after send %d: restore changed the snapshot:\n got %s\nwant %s", i, b, a)
		}
	}
	if !outOfOrder {
		t.Fatal("no frame retired ahead of an earlier send; the test lost its point")
	}
	if r.n.Dropped == 0 {
		t.Fatal("no frame was lost at departure")
	}
}
