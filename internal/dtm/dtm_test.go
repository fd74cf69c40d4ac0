package dtm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	_ = k.Schedule(30, func(uint64) { order = append(order, 3) })
	_ = k.Schedule(10, func(uint64) { order = append(order, 1) })
	_ = k.Schedule(20, func(uint64) { order = append(order, 2) })
	// Same-time events run FIFO.
	_ = k.Schedule(20, func(uint64) { order = append(order, 4) })
	for k.Step() {
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if k.Now() != 30 || k.Executed() != 4 || k.Pending() != 0 {
		t.Errorf("kernel state: now=%d ran=%d pending=%d", k.Now(), k.Executed(), k.Pending())
	}
}

func TestKernelSchedulePast(t *testing.T) {
	k := NewKernel()
	_ = k.Schedule(10, func(uint64) {})
	k.RunUntil(10)
	if err := k.Schedule(5, func(uint64) {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(100, func(now uint64) {
		fired = true
		if now != 100 {
			t.Errorf("fired at %d", now)
		}
	})
	k.RunUntil(50)
	if fired {
		t.Error("fired early")
	}
	if k.Now() != 50 {
		t.Errorf("Now = %d", k.Now())
	}
	k.RunUntil(200)
	if !fired || k.Now() != 200 {
		t.Errorf("fired=%v now=%d", fired, k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	count := 0
	var rec func(now uint64)
	rec = func(now uint64) {
		count++
		if count < 5 {
			k.After(10, rec)
		}
	}
	k.After(0, rec)
	k.RunUntil(1000)
	if count != 5 || k.Now() != 1000 {
		t.Errorf("count=%d now=%d", count, k.Now())
	}
}

func TestStoreStateMessages(t *testing.T) {
	k := NewKernel()
	s := NewStore(k.Now)
	if v := s.Get("x"); v.IsValid() {
		t.Error("unset signal should be invalid zero")
	}
	var changes []string
	s.OnChange = func(now uint64, sig string, old, new value.Value) {
		changes = append(changes, fmt.Sprintf("%d:%s:%s->%s", now, sig, old, new))
	}
	s.Set("x", value.F(1))
	s.Set("x", value.F(1)) // no change, no callback
	s.Set("x", value.F(2))
	if len(changes) != 2 {
		t.Fatalf("changes = %v", changes)
	}
	if s.Get("x").Float() != 2 {
		t.Error("latest value wrong")
	}
	snap := s.Snapshot()
	s.Set("x", value.F(3))
	if v, err := value.Decode(snap["x"]); err != nil || v.Float() != 2 {
		t.Errorf("snapshot not isolated: %v %v", v, err)
	}
	// Restore rewinds the contents without firing OnChange.
	before := len(changes)
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s.Get("x").Float() != 2 || len(changes) != before {
		t.Error("restore did not rewind silently")
	}
	// nil clock store is safe.
	s2 := NewStore(nil)
	s2.Set("y", value.I(1))
}

// run is a body that completes at once.
func run(uint64, uint64, uint64) (uint64, bool, error) { return 0, true, nil }

// costs is a body that completes in cost ns whatever its budget: the
// cooperative policy runs it with the Unbounded budget.
func costs(cost uint64) func(uint64, uint64, uint64) (uint64, bool, error) {
	return func(uint64, uint64, uint64) (uint64, bool, error) { return cost, true, nil }
}

func TestTaskValidation(t *testing.T) {
	bad := []*Task{
		{Period: 10, Deadline: 5, Slice: run},             // no name
		{Name: "t", Deadline: 5, Slice: run},              // no period
		{Name: "t", Period: 10, Slice: run},               // no deadline
		{Name: "t", Period: 10, Deadline: 20, Slice: run}, // deadline > period
		{Name: "t", Period: 10, Deadline: 5},              // no body
	}
	for i, task := range bad {
		if err := task.Validate(); err == nil {
			t.Errorf("task %d should fail validation", i)
		}
	}
	s := NewScheduler(NewKernel())
	good := &Task{Name: "t", Period: 10, Deadline: 5, Slice: run}
	if err := s.AddTask(good); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(&Task{Name: "t", Period: 10, Deadline: 5, Slice: run}); err == nil {
		t.Error("duplicate task should fail")
	}
	if len(s.Tasks()) != 1 {
		t.Error("Tasks() wrong")
	}
}

// TestDTMLatching is the core jitter-elimination test (experiment-grade):
// a task whose execution cost varies wildly still publishes outputs at
// exact deadline instants, so the output phase is constant. The task's
// input, working output and published output live in the closure, as
// they live in board RAM on a target.
func TestDTMLatching(t *testing.T) {
	k := NewKernel()
	store := NewStore(k.Now)
	rec := NewJitterRecorder("out", 1000)
	store.OnChange = rec.Observe
	s := NewScheduler(k)
	r := rand.New(rand.NewSource(1))
	var in, out float64
	task := &Task{
		Name: "ctl", Period: 1000, Deadline: 600,
		Latch: func(now uint64) { in = float64(now) },
		Slice: func(release, now, budget uint64) (uint64, bool, error) {
			out = in + 1
			return uint64(r.Intn(500)), true, nil // jittery execution time
		},
		Output: func(now uint64) {
			if out != float64(now-600)+1 {
				t.Errorf("published %g at %d, want the value computed from the %d release", out, now, now-600)
			}
			store.Set("out", value.F(out))
		},
	}
	if err := s.AddTask(task); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(50_000)
	if task.Releases != 51 {
		t.Errorf("releases = %d, want 51", task.Releases)
	}
	if !rec.JitterFree() {
		t.Errorf("output jitter detected: phases %v", rec.Phases)
	}
	// The single phase must be the deadline offset (600).
	for phase := range rec.Phases {
		if phase != 600 {
			t.Errorf("output phase %d, want 600", phase)
		}
	}
	if task.DeadlineMisses != 0 {
		t.Errorf("unexpected misses: %d", task.DeadlineMisses)
	}
}

func TestDeadlineMissCounted(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	task := &Task{
		Name: "slow", Period: 1000, Deadline: 100,
		Slice: costs(500), // exceeds deadline
	}
	_ = s.AddTask(task)
	s.Start()
	k.RunUntil(5000)
	if task.DeadlineMisses != task.Releases || task.Releases == 0 {
		t.Errorf("misses=%d releases=%d", task.DeadlineMisses, task.Releases)
	}
}

func TestExecuteErrorRecorded(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	boom := fmt.Errorf("boom")
	task := &Task{
		Name: "bad", Period: 100, Deadline: 50,
		Slice: func(uint64, uint64, uint64) (uint64, bool, error) {
			return 0, false, boom
		},
		Output: func(uint64) { t.Error("output after error") },
	}
	_ = s.AddTask(task)
	s.Start()
	k.RunUntil(250)
	if task.LastError != boom {
		t.Error("error not recorded")
	}
}

func TestOffsetDelaysFirstRelease(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	var first uint64
	task := &Task{
		Name: "off", Period: 100, Offset: 37, Deadline: 50,
		Slice: func(release, now, budget uint64) (uint64, bool, error) {
			if first == 0 {
				first = now
			}
			return 0, true, nil
		},
	}
	_ = s.AddTask(task)
	s.Start()
	k.RunUntil(500)
	if first != 37 {
		t.Errorf("first release at %d, want 37", first)
	}
}

func TestHaltSuspendsReleases(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	task := &Task{Name: "t", Period: 100, Deadline: 50, Slice: run}
	_ = s.AddTask(task)
	s.Start()
	k.RunUntil(500) // releases at 0..500: 6
	if task.Releases != 6 {
		t.Fatalf("releases = %d", task.Releases)
	}
	s.Halt()
	if !s.Halted() {
		t.Error("Halted() false")
	}
	k.RunUntil(1000)
	if task.Releases != 6 {
		t.Errorf("halted but released: %d", task.Releases)
	}
	s.Resume()
	k.RunUntil(1500)
	if task.Releases <= 6 {
		t.Error("resume did not restart releases")
	}
}

// TestCooperativeSuspension: a cooperative body reporting ErrSuspended
// counts a suspension — no miss, no error — and is parked as a job with
// the cost it used, charging nothing and arming no latch. Resume continues
// it as one Unbounded slice; completion charges the whole cost and arms the
// latch at the original deadline instant, which a snapshot carries as a
// pending output. A restore of the suspension resumes the same way.
func TestCooperativeSuspension(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	suspend := true
	var outAt []uint64
	task := &Task{
		Name: "t", Period: 100, Deadline: 50,
		Slice: func(release, now, budget uint64) (uint64, bool, error) {
			if budget != Unbounded {
				t.Errorf("cooperative slice budget %d, want Unbounded", budget)
			}
			if suspend {
				suspend = false
				s.Halt() // the on-target agent halts the board from inside the body
				return 7, false, ErrSuspended
			}
			return 7, true, nil
		},
		Output: func(now uint64) { outAt = append(outAt, now) },
	}
	if err := s.AddTask(task); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(10)
	if task.Suspensions != 1 || task.DeadlineMisses != 0 || task.LastError != nil || task.ExecNs != 0 {
		t.Fatalf("after suspension: suspensions=%d misses=%d err=%v exec=%d",
			task.Suspensions, task.DeadlineMisses, task.LastError, task.ExecNs)
	}
	ks, ss := k.Snapshot(), s.Snapshot()
	if len(ss.Pending) != 0 || len(ss.Jobs) != 1 || !ss.Jobs[0].Suspended || ss.Jobs[0].UsedNs != 7 || ss.JobSeq != 0 {
		t.Fatalf("suspended release not parked as a job: %+v", ss)
	}
	resume := func() string {
		s.Resume()
		if p := s.Snapshot(); len(p.Pending) != 1 || p.Pending[0].Task != "t" || p.Pending[0].At != 50 || len(p.Jobs) != 0 {
			t.Fatalf("made-up latch not pending: %+v", p)
		}
		k.RunUntil(250)
		return fmt.Sprint(outAt, task.ExecNs, task.WorstNs, task.Suspensions)
	}
	const want = "[50 150 250] 28 14 1"
	if got := resume(); got != want {
		t.Fatalf("outputs, exec, worst, suspensions = %s; want %s", got, want)
	}
	outAt = nil
	k.Restore(ks)
	if err := s.Restore(ss); err != nil {
		t.Fatal(err)
	}
	if got := resume(); got != want {
		t.Fatalf("restored: outputs, exec, worst, suspensions = %s; want %s", got, want)
	}
}

func TestNetworkLatency(t *testing.T) {
	k := NewKernel()
	remote := NewStore(k.Now)
	var arrival uint64
	remote.OnChange = func(now uint64, sig string, old, new value.Value) { arrival = now }
	net := NewNetwork(k, 250)
	k.After(100, func(uint64) { net.Sender("a").Send("s", value.F(1), remote) })
	k.RunUntil(10_000)
	if arrival != 350 {
		t.Errorf("arrival at %d, want 350", arrival)
	}
	if net.Sent != 1 {
		t.Error("Sent count wrong")
	}
}

// Distributed transaction: actor A (node 1) publishes at its deadline; the
// network carries the signal to node 2 where actor B consumes it. End-to-end
// output of B still lands on B's deadline instants only.
func TestDistributedTransactionJitterFree(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	net := NewNetwork(k, 200)
	board1, board2 := NewStore(k.Now), NewStore(k.Now)
	rec := NewJitterRecorder("final", 1000)
	board2.OnChange = rec.Observe

	var xA, xB, final value.Value
	sender := net.Sender("node1")
	taskA := &Task{
		Name: "A", Period: 1000, Deadline: 300,
		Slice: func(release, now, budget uint64) (uint64, bool, error) {
			xA = value.F(float64(now))
			return now % 250, true, nil
		},
		Output: func(now uint64) {
			board1.Set("x", xA)
			sender.Send("x", xA, board2)
		},
	}
	taskB := &Task{
		Name: "B", Period: 1000, Offset: 600, Deadline: 400,
		Latch: func(now uint64) { xB = board2.Get("x") },
		Slice: func(release, now, budget uint64) (uint64, bool, error) {
			final = value.F(xB.Float() * 2)
			return now % 333, true, nil
		},
		Output: func(now uint64) { board2.Set("final", final) },
	}
	if err := s.AddTask(taskA); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(taskB); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(20_000)
	if !rec.JitterFree() {
		t.Errorf("transaction jitter: %v", rec.Phases)
	}
	if taskA.Releases == 0 || taskB.Releases == 0 || net.Sent == 0 {
		t.Error("pipeline did not run")
	}
}

// Property: for random periods/deadlines/costs, output changes only occur
// at phase == deadline.
func TestQuickJitterInvariant(t *testing.T) {
	f := func(periodSeed, deadlineSeed uint16, costs []uint16) bool {
		period := uint64(periodSeed%5000) + 100
		deadline := uint64(deadlineSeed)%period + 1
		k := NewKernel()
		store := NewStore(k.Now)
		rec := NewJitterRecorder("o", period)
		store.OnChange = rec.Observe
		s := NewScheduler(k)
		i := 0
		var o value.Value
		task := &Task{
			Name: "t", Period: period, Deadline: deadline,
			Slice: func(release, now, budget uint64) (uint64, bool, error) {
				var c uint64
				if len(costs) > 0 {
					c = uint64(costs[i%len(costs)])
					i++
				}
				o = value.F(float64(now))
				return c, true, nil
			},
			Output: func(now uint64) { store.Set("o", o) },
		}
		if err := s.AddTask(task); err != nil {
			return false
		}
		s.Start()
		k.RunUntil(period * 20)
		if !rec.JitterFree() {
			return false
		}
		for phase := range rec.Phases {
			if phase != deadline%period {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSchedulePastRejectedNotEnqueued is the regression test for the
// silent-past-event bug: Schedule/ScheduleTagged at < now must error AND
// leave the queue untouched — previously the event was enqueued and ran
// "in the past" on the next pop, reordering history. Rearm stays the one
// past-tolerant path.
func TestSchedulePastRejectedNotEnqueued(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100)
	ran := false
	if err := k.Schedule(50, func(uint64) { ran = true }); err == nil {
		t.Fatal("Schedule in the past must error")
	}
	if _, err := k.ScheduleTagged(99, func(uint64) { ran = true }); err == nil {
		t.Fatal("ScheduleTagged in the past must error")
	}
	if err := k.ScheduleAt(10, 5, 1, func(uint64) { ran = true }); err == nil {
		t.Fatal("ScheduleAt in the past must error")
	}
	if k.Pending() != 0 {
		t.Fatalf("%d past events enqueued", k.Pending())
	}
	k.RunUntil(1000)
	if ran {
		t.Fatal("a rejected past event ran")
	}
	// at == now is not "the past": boundary schedules stay legal.
	if err := k.Schedule(1000, func(uint64) {}); err != nil {
		t.Fatalf("schedule at now: %v", err)
	}
}

// TestRearmPastTolerantClampsClock: Rearm may target an instant at or
// before now (restore tooling re-arms relative to a clock it is about to
// rewind); the event runs on the next pop with the clock clamped monotone.
func TestRearmPastTolerantClampsClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100)
	var at uint64
	if err := k.Rearm(40, 7, func(now uint64) { at = now }); err != nil {
		t.Fatal(err)
	}
	if !k.Step() {
		t.Fatal("re-armed event did not run")
	}
	if at != 100 || k.Now() != 100 {
		t.Fatalf("past event ran at %d, clock %d (want clamped 100)", at, k.Now())
	}
}

// TestRearmRecoversSchedAt: equal-instant events whose schedule instants
// differ must keep their relative order through Snapshot/Restore/Rearm —
// the SchedAts table carries the middle (at, schedAt, seq) coordinate.
func TestRearmRecoversSchedAt(t *testing.T) {
	k := NewKernel()
	var order []string
	// Event A scheduled at t=0 for t=100; event B scheduled later (t=50,
	// inside an event) also for t=100 but with a LOWER re-arm seq offered
	// first — only schedAt keeps A before B after a restore.
	seqA, _ := k.ScheduleTagged(100, func(uint64) { order = append(order, "A") })
	var seqB uint64
	_ = k.Schedule(50, func(uint64) {
		seqB, _ = k.ScheduleTagged(100, func(uint64) { order = append(order, "B") })
	})
	k.RunUntil(60)
	st := k.Snapshot()
	if len(st.SchedAts) != 2 || st.SchedAts[seqA] != 0 || st.SchedAts[seqB] != 50 {
		t.Fatalf("SchedAts = %v (want {%d:0, %d:50})", st.SchedAts, seqA, seqB)
	}

	k2 := NewKernel()
	k2.Restore(st)
	// Re-arm in the wrong order on purpose: identity, not call order, must
	// decide execution order.
	_ = k2.Rearm(100, seqB, func(uint64) { order = append(order, "B") })
	_ = k2.Rearm(100, seqA, func(uint64) { order = append(order, "A") })
	k2.RunUntil(200)
	if fmt.Sprint(order) != "[A B]" {
		t.Fatalf("restored order = %v", order)
	}
}

// TestScheduleAtForeignIdentity: ScheduleAt events carry an explicit
// (at, schedAt, seq) from a foreign number space (network deliveries) and
// interleave with kernel-assigned events exactly by that key, without
// bumping the kernel's own counter.
func TestScheduleAtForeignIdentity(t *testing.T) {
	k := NewKernel()
	var order []string
	_, _ = k.ScheduleTagged(100, func(uint64) { order = append(order, "local") }) // (100, 0, 1)
	seqBefore := k.Snapshot().Seq
	// Same instant, earlier schedAt — wins despite the huge seq.
	if err := k.ScheduleAt(100, 0, DeliveryBase, func(uint64) { order = append(order, "delivery") }); err != nil {
		t.Fatal(err)
	}
	if k.Snapshot().Seq != seqBefore {
		t.Fatal("ScheduleAt bumped the kernel seq counter")
	}
	k.RunUntil(100)
	// Equal (at, schedAt): kernel seq 1 < DeliveryBase.
	if fmt.Sprint(order) != "[local delivery]" {
		t.Fatalf("order = %v", order)
	}
}

// TestKernelReentrancyPanics: running the kernel from inside an event is
// heap corruption waiting to happen; it must panic loudly instead.
func TestKernelReentrancyPanics(t *testing.T) {
	k := NewKernel()
	_ = k.Schedule(10, func(uint64) { k.RunUntil(20) })
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant RunUntil did not panic")
		}
	}()
	k.RunUntil(100)
}
