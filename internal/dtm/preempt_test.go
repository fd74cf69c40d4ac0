package dtm

import (
	"fmt"
	"testing"
)

// sliceBody is a synthetic resumable task body: a fixed amount of virtual
// work per release, consumed budget by budget, logging every slice.
type sliceBody struct {
	name  string
	total uint64
	log   *[]string

	rel       uint64
	active    bool
	remaining uint64
}

func (f *sliceBody) slice(release, now, budget uint64) (uint64, bool, error) {
	if !f.active || f.rel != release {
		f.rel, f.active, f.remaining = release, true, f.total
	}
	use := budget
	if f.remaining < use {
		use = f.remaining
	}
	f.remaining -= use
	if f.log != nil {
		*f.log = append(*f.log, fmt.Sprintf("%s@%d", f.name, now))
	}
	if f.remaining == 0 {
		f.active = false
		return use, true, nil
	}
	return use, false, nil
}

func TestFixedPriorityPreemptsLowTask(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	s.Policy = FixedPriority

	var preempts, misses []string
	s.OnPreempt = func(now uint64, p, by *Task) {
		preempts = append(preempts, fmt.Sprintf("%s<-%s@%d", p.Name, by.Name, now))
	}
	s.OnDeadlineMiss = func(now uint64, task *Task) {
		misses = append(misses, fmt.Sprintf("%s@%d", task.Name, now))
	}

	var outAt []uint64
	lo := &Task{Name: "lo", Period: 20, Deadline: 10, Priority: 1,
		Slice:  (&sliceBody{name: "lo", total: 5}).slice,
		Output: func(now uint64) { outAt = append(outAt, now) }}
	hi := &Task{Name: "hi", Period: 4, Deadline: 4, Priority: 2,
		Slice: (&sliceBody{name: "hi", total: 2}).slice}
	if err := s.AddTask(lo); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(hi); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(20)

	// Timeline: hi 0-2, lo 2-4 | hi 4-6, lo 6-8 | hi 8-10, lo 10-11 done.
	if hi.DeadlineMisses != 0 {
		t.Errorf("hi misses = %d", hi.DeadlineMisses)
	}
	if lo.DeadlineMisses != 1 {
		t.Errorf("lo misses = %d, want 1", lo.DeadlineMisses)
	}
	if lo.Preemptions != 2 {
		t.Errorf("lo preemptions = %d, want 2 (%v)", lo.Preemptions, preempts)
	}
	if len(misses) != 1 || misses[0] != "lo@10" {
		t.Errorf("miss hook = %v, want [lo@10] (detected at the latch instant)", misses)
	}
	if lo.ExecNs != 5 {
		t.Errorf("lo ExecNs = %d, want exactly its body cost 5", lo.ExecNs)
	}
	if lo.WorstResponseNs != 11 {
		t.Errorf("lo worst response = %d, want 11", lo.WorstResponseNs)
	}
	// The missed release late-publishes at completion, not at the latch.
	if len(outAt) != 1 || outAt[0] != 11 {
		t.Errorf("lo output instants = %v, want [11]", outAt)
	}
}

// TestEqualPriorityFIFO is the table-driven tie-break suite: within one
// priority, jobs run in release order — including a preempted job
// resuming ahead of an equal-priority job released later.
func TestEqualPriorityFIFO(t *testing.T) {
	type taskDef struct {
		name         string
		prio         int
		period, dl   uint64
		offset, cost uint64
	}
	cases := []struct {
		name  string
		tasks []taskDef
		until uint64
		want  []string // slice log prefix
	}{
		{
			name: "same-instant-registration-order",
			tasks: []taskDef{
				{name: "a", prio: 1, period: 10, dl: 10, cost: 3},
				{name: "b", prio: 1, period: 10, dl: 10, cost: 3},
			},
			until: 10,
			want:  []string{"a@0", "b@3"},
		},
		{
			name: "registration-order-reversed",
			tasks: []taskDef{
				{name: "b", prio: 1, period: 10, dl: 10, cost: 3},
				{name: "a", prio: 1, period: 10, dl: 10, cost: 3},
			},
			until: 10,
			want:  []string{"b@0", "a@3"},
		},
		{
			name: "preempted-job-resumes-before-later-equal-release",
			tasks: []taskDef{
				{name: "lo1", prio: 1, period: 20, dl: 20, cost: 6},
				{name: "hi", prio: 2, period: 20, dl: 20, offset: 5, cost: 1},
				{name: "lo2", prio: 1, period: 20, dl: 20, offset: 5, cost: 1},
			},
			until: 10,
			// lo1 runs 0-5 (sliced at hi/lo2's release), hi preempts 5-6,
			// then lo1 (older release) finishes 6-7 before lo2 runs 7-8.
			want: []string{"lo1@0", "hi@5", "lo1@6", "lo2@7"},
		},
		{
			name: "higher-priority-first-regardless-of-order",
			tasks: []taskDef{
				{name: "low", prio: 1, period: 10, dl: 10, cost: 2},
				{name: "high", prio: 5, period: 10, dl: 10, cost: 2},
			},
			until: 5,
			want:  []string{"high@0", "low@2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			s := NewScheduler(k)
			s.Policy = FixedPriority
			var log []string
			for _, td := range tc.tasks {
				body := &sliceBody{name: td.name, total: td.cost, log: &log}
				if err := s.AddTask(&Task{
					Name: td.name, Period: td.period, Deadline: td.dl,
					Offset: td.offset, Priority: td.prio, Slice: body.slice,
				}); err != nil {
					t.Fatal(err)
				}
			}
			s.Start()
			k.RunUntil(tc.until)
			if len(log) < len(tc.want) {
				t.Fatalf("slice log %v shorter than want %v", log, tc.want)
			}
			for i, w := range tc.want {
				if log[i] != w {
					t.Fatalf("slice log %v, want prefix %v (diverges at %d)", log, tc.want, i)
				}
			}
		})
	}
}

func TestFixedPriorityExactDeadlineMeets(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	s.Policy = FixedPriority
	var outAt []uint64
	task := &Task{Name: "edge", Period: 10, Deadline: 4, Priority: 1,
		Slice:  (&sliceBody{name: "edge", total: 4}).slice,
		Output: func(now uint64) { outAt = append(outAt, now) }}
	if err := s.AddTask(task); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(9)
	if task.DeadlineMisses != 0 {
		t.Errorf("finishing exactly at the deadline counted %d misses", task.DeadlineMisses)
	}
	if len(outAt) != 1 || outAt[0] != 4 {
		t.Errorf("output instants = %v, want [4]", outAt)
	}
}

func TestFixedPriorityCtxSwitchAccounting(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	s.Policy = FixedPriority
	s.CtxSwitchNs = 1
	var charged int
	s.OnCtxSwitch = func(now uint64, task *Task) { charged++ }
	a := &Task{Name: "a", Period: 10, Deadline: 10, Priority: 2,
		Slice: (&sliceBody{name: "a", total: 2}).slice}
	b := &Task{Name: "b", Period: 10, Deadline: 10, Priority: 1,
		Slice: (&sliceBody{name: "b", total: 2}).slice}
	if err := s.AddTask(a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(b); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(9)
	// a 0-3 (1 ctx + 2 work), b 3-6 (1 ctx + 2 work).
	if s.CtxSwitches != 2 || charged != 2 {
		t.Errorf("ctx switches = %d (hook %d), want 2", s.CtxSwitches, charged)
	}
	if a.WorstResponseNs != 3 {
		t.Errorf("a response = %d, want 3 (ctx cost included)", a.WorstResponseNs)
	}
	if b.WorstResponseNs != 6 {
		t.Errorf("b response = %d, want 6", b.WorstResponseNs)
	}
}

// TestFixedPrioritySuspension: ErrSuspended parks the job without a miss
// even when its latch instant passes; Resume re-queues it by priority and
// the release late-publishes at completion.
func TestFixedPrioritySuspension(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	s.Policy = FixedPriority
	suspendOnce := true
	var outAt []uint64
	body := &sliceBody{name: "t", total: 3}
	task := &Task{Name: "t", Period: 20, Deadline: 5, Priority: 1,
		Slice: func(release, now, budget uint64) (uint64, bool, error) {
			if suspendOnce {
				suspendOnce = false
				// The on-target breakpoint agent halts the board from
				// inside the slice, then reports the suspension.
				s.Halt()
				return 1, false, ErrSuspended
			}
			return body.slice(release, now, budget)
		},
		Output: func(now uint64) { outAt = append(outAt, now) }}
	if err := s.AddTask(task); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(8)
	if task.Suspensions != 1 {
		t.Fatalf("suspensions = %d", task.Suspensions)
	}
	if !s.Suspended() {
		t.Fatal("scheduler does not report the parked job")
	}
	if task.DeadlineMisses != 0 {
		t.Errorf("suspension counted %d misses", task.DeadlineMisses)
	}
	if len(outAt) != 0 {
		t.Errorf("suspended release published at %v", outAt)
	}
	s.Resume()
	k.RunUntil(19)
	if task.DeadlineMisses != 0 {
		t.Errorf("made-up latch counted %d misses", task.DeadlineMisses)
	}
	if len(outAt) != 1 {
		t.Fatalf("output instants = %v, want one late publish", outAt)
	}
	if outAt[0] <= 5 {
		t.Errorf("late publish at %d, want after the 5 ns latch instant", outAt[0])
	}
}

// TestCooperativeIgnoresPriority pins the seed behavior: under the default
// policy every release runs at its release instant regardless of Priority.
func TestCooperativeIgnoresPriority(t *testing.T) {
	k := NewKernel()
	s := NewScheduler(k)
	var order []string
	mk := func(name string, prio int) *Task {
		return &Task{Name: name, Period: 10, Deadline: 10, Priority: prio,
			Slice: func(release, now, budget uint64) (uint64, bool, error) {
				order = append(order, fmt.Sprintf("%s@%d", name, now))
				return 3, true, nil
			}}
	}
	if err := s.AddTask(mk("low", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(mk("high", 9)); err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(5)
	// Registration order, both at their release instant — no reordering,
	// no preemption state.
	if len(order) != 2 || order[0] != "low@0" || order[1] != "high@0" {
		t.Errorf("cooperative order = %v", order)
	}
	if s.CtxSwitches != 0 {
		t.Errorf("cooperative charged %d context switches", s.CtxSwitches)
	}
}
