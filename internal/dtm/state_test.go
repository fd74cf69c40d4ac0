package dtm

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/value"
)

// publishLog records Output publications for timeline comparison.
type publishLog struct{ lines []string }

// output logs name's publication of the value its release at now-deadline
// computed, v plus that release instant.
func (p *publishLog) output(name string, deadline uint64, v int64) func(uint64) {
	return func(now uint64) {
		p.lines = append(p.lines, fmt.Sprintf("%s@%d=%d", name, now, v+int64(now-deadline)))
	}
}

// cooperativeRig builds a two-task cooperative schedule whose deadline
// latches are pending when it is snapshotted (the pending-output path).
func cooperativeRig() (*Kernel, *Scheduler, *publishLog) {
	k := NewKernel()
	s := NewScheduler(k)
	log := &publishLog{}
	// Published values are pure functions of the release instant:
	// closure-held state is invisible to the scheduler snapshot by design
	// (real targets keep body state in RAM, captured by the board layer).
	mk := func(name string, period, deadline, cost uint64, v int64) *Task {
		return &Task{
			Name: name, Period: period, Deadline: deadline,
			Slice:  costs(cost),
			Output: log.output(name, deadline, v),
		}
	}
	_ = s.AddTask(mk("a", 1000, 700, 100, 1))
	_ = s.AddTask(mk("b", 2000, 1500, 300, 100))
	s.Start()
	return k, s, log
}

// TestSchedulerSnapshotRestoreCooperative snapshots mid-run with output
// latches pending and verifies the restored timeline publishes the very
// same sequence at the very same instants.
func TestSchedulerSnapshotRestoreCooperative(t *testing.T) {
	k, s, log := cooperativeRig()
	k.RunUntil(3100) // releases at 3000 done; latches at 3700/3500 pending
	ks := k.Snapshot()
	ss := s.Snapshot()
	if len(ss.Pending) == 0 {
		t.Fatal("expected pending output latches in the snapshot")
	}
	// The snapshot must be serializable.
	blob, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	var ss2 SchedulerState
	if err := json.Unmarshal(blob, &ss2); err != nil {
		t.Fatal(err)
	}

	k.RunUntil(10000)
	want := append([]string(nil), log.lines...)

	// Rewind and replay: the publishes after restore must be exactly the
	// post-snapshot suffix of the original run.
	log.lines = log.lines[:0]
	k.Restore(ks)
	if err := s.Restore(ss2); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(10000)
	tail := log.lines
	if len(tail) == 0 || len(tail) > len(want) {
		t.Fatalf("replay produced %d publishes, original %d", len(tail), len(want))
	}
	for i, l := range tail {
		if want[len(want)-len(tail)+i] != l {
			t.Fatalf("restored timeline diverged at %d:\n want %v\n got %v", i, want, tail)
		}
	}
}

// TestSchedulerSnapshotRestoreFixedPriority freezes a preemptive schedule
// mid-slice (a job on the CPU, one ready, latches pending) and verifies
// accounting and ordering replay identically.
func TestSchedulerSnapshotRestoreFixedPriority(t *testing.T) {
	type ev struct {
		kind string
		task string
		at   uint64
	}
	build := func() (*Kernel, *Scheduler, *[]ev) {
		k := NewKernel()
		s := NewScheduler(k)
		s.Policy = FixedPriority
		s.CtxSwitchNs = 10
		events := &[]ev{}
		s.OnPreempt = func(now uint64, p, by *Task) { *events = append(*events, ev{"preempt", p.Name, now}) }
		s.OnDeadlineMiss = func(now uint64, tk *Task) { *events = append(*events, ev{"miss", tk.Name, now}) }
		mk := func(name string, period, deadline, cost uint64, prio int) *Task {
			remaining := uint64(0)
			return &Task{
				Name: name, Period: period, Deadline: deadline, Priority: prio,
				Slice: func(release, now, budget uint64) (uint64, bool, error) {
					if remaining == 0 {
						remaining = cost
					}
					run := remaining
					if run > budget {
						run = budget
					}
					remaining -= run
					return run, remaining == 0, nil
				},
				Output: func(now uint64) {
					*events = append(*events, ev{"out", name, now})
				},
			}
		}
		_ = s.AddTask(mk("hog", 1000, 1000, 600, 10))
		_ = s.AddTask(mk("low", 4000, 2000, 900, 1))
		s.Start()
		return k, s, events
	}

	// Control run.
	k1, _, ev1 := build()
	k1.RunUntil(20000)

	// Snapshot mid-run; note Slice closures carry hidden state
	// (`remaining`), which the scheduler cannot snapshot — so restore onto
	// the SAME scheduler at the SAME instant must already replay (the
	// board's real Slice state lives in VM machines, snapshotted by the
	// target layer).
	k2, s2, ev2 := build()
	k2.RunUntil(7500)
	ks, ss := k2.Snapshot(), s2.Snapshot()
	if len(ss.Jobs) == 0 {
		t.Fatal("expected live jobs mid-preemptive-run")
	}
	pre := len(*ev2)
	k2.Restore(ks)
	if err := s2.Restore(ss); err != nil {
		t.Fatal(err)
	}
	k2.RunUntil(20000)
	if fmt.Sprint((*ev1)[pre:]) != fmt.Sprint((*ev2)[pre:]) {
		t.Fatalf("restored preemptive timeline diverged:\n want %v\n got %v", (*ev1)[pre:], (*ev2)[pre:])
	}
	if fmt.Sprint((*ev1)[:pre]) != fmt.Sprint((*ev2)[:pre]) {
		t.Fatalf("pre-snapshot timelines differ")
	}
}

// TestNetworkSnapshotInflight freezes frames mid-hop and verifies they
// land at the original instants with the original values after a restore
// — including across a rewind.
func TestNetworkSnapshotInflight(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, 500)
	dst := NewStore(k.Now)
	net.Bind("node", dst)
	var got []string
	dst.OnChange = func(now uint64, sig string, old, new value.Value) {
		got = append(got, fmt.Sprintf("%s@%d=%v", sig, now, new))
	}

	src := net.Sender("src")
	src.Send("s", value.F(1), dst)
	k.RunUntil(200)
	src.Send("q", value.I(7), dst)
	if net.Inflight() != 2 {
		t.Fatalf("inflight = %d", net.Inflight())
	}
	ks := k.Snapshot()
	ns, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sn := dst.Snapshot()

	k.RunUntil(1000)
	want := fmt.Sprint(got)

	got = nil
	k.Restore(ks)
	if err := net.Restore(ns); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(sn); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(1000)
	if fmt.Sprint(got) != want {
		t.Fatalf("replayed deliveries %v, want %v", got, want)
	}

	// Unbound destination: snapshot must refuse.
	net2 := NewNetwork(k, 10)
	net2.Sender("src").Send("x", value.B(true), NewStore(nil))
	if _, err := net2.Snapshot(); err == nil {
		t.Fatal("expected error for in-flight frame to unbound store")
	}
}
