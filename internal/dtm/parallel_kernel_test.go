package dtm

import (
	"fmt"
	"testing"
)

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
// (at, schedAt, seq) from a foreign number space and interleave with
// kernel-assigned events exactly by that key, without bumping the kernel's
// own counter.
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

// TestRunMergedBarrierSemantics: exclusive windows stop strictly below the
// limit, the final window is inclusive, onEvent sees each event's kernel
// index and (at, schedAt) before it runs, and AdvanceTo moves the clock
// only forward — with one kernel (the plain windowed run) and with three
// merged kernels.
func TestRunMergedBarrierSemantics(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("kernels=%d", n), func(t *testing.T) {
			ks := make([]*Kernel, n)
			for i := range ks {
				ks[i] = NewKernel()
			}
			var ran []string
			for _, at := range []uint64{10, 20, 30} {
				for i, k := range ks {
					_ = k.Schedule(at, func(uint64) { ran = append(ran, fmt.Sprintf("%d@%d", i, at)) })
				}
			}
			var front []string
			onEvent := func(i int, at, schedAt uint64) { front = append(front, fmt.Sprintf("%d:%d/%d", i, at, schedAt)) }
			want := func(ats ...uint64) (r, f string) {
				var rs, fs []string
				for _, at := range ats {
					for i := range ks {
						rs = append(rs, fmt.Sprintf("%d@%d", i, at))
						fs = append(fs, fmt.Sprintf("%d:%d/0", i, at))
					}
				}
				return fmt.Sprint(rs), fmt.Sprint(fs)
			}

			RunMerged(ks, 20, false, onEvent)
			if r, _ := want(10); fmt.Sprint(ran) != r {
				t.Fatalf("exclusive window ran %v, want %s", ran, r)
			}
			for i, k := range ks {
				if k.Now() != 10 {
					t.Fatalf("kernel %d clock %d after window (must sit at last event)", i, k.Now())
				}
				k.AdvanceTo(20)
				k.AdvanceTo(5) // backwards: no-op
				if k.Now() != 20 {
					t.Fatalf("AdvanceTo left kernel %d clock at %d", i, k.Now())
				}
			}
			RunMerged(ks, 30, true, onEvent)
			r, f := want(10, 20, 30)
			if fmt.Sprint(ran) != r {
				t.Fatalf("inclusive window ran %v, want %s", ran, r)
			}
			if fmt.Sprint(front) != f {
				t.Fatalf("frontier = %v, want %s", front, f)
			}
		})
	}
}

// TestRunMergedOrder: the merged stream is ordered by (at, schedAt, kernel
// index), events scheduled mid-window onto any merged kernel join it, and
// a kernel listed twice panics as a re-entrant run without wedging the
// kernels.
func TestRunMergedOrder(t *testing.T) {
	ks := []*Kernel{NewKernel(), NewKernel(), NewKernel()}
	var ran []string
	note := func(s string) func(uint64) { return func(uint64) { ran = append(ran, s) } }
	// Kernel 2 schedules its t=50 event from an event at t=40, so that
	// event carries schedAt 40 and runs after both (50, 0) events, which
	// then tie on (at, schedAt) and run in kernel order.
	_ = ks[2].Schedule(40, func(uint64) {
		ran = append(ran, "2@40")
		_ = ks[2].Schedule(50, note("2@50/40"))
		_ = ks[0].Schedule(45, note("0@45/40")) // foreign kernel, mid-window
	})
	_ = ks[1].Schedule(50, note("1@50/0"))
	_ = ks[0].Schedule(50, note("0@50/0"))
	RunMerged(ks, 100, false, nil)
	if got, want := fmt.Sprint(ran), "[2@40 0@45/40 0@50/0 1@50/0 2@50/40]"; got != want {
		t.Fatalf("merged order %s, want %s", got, want)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate kernel did not panic")
			}
		}()
		RunMerged([]*Kernel{ks[0], ks[0]}, 200, true, nil)
	}()
	RunMerged(ks, 200, true, nil) // the guard was released
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
