package dtm

import "testing"

// rtaTask builds a task shell with a budgeted WCET for the analysis.
func rtaTask(name string, wcet, period, deadline uint64, prio int) *Task {
	return &Task{
		Name: name, Period: period, Deadline: deadline, Priority: prio,
		WorstNs: wcet,
		Slice:   run,
	}
}

// TestRTAKnownSets is the table of hand-computed schedulable and
// unschedulable fixed-priority sets.
func TestRTAKnownSets(t *testing.T) {
	cases := []struct {
		name  string
		tasks []*Task
		want  []RTAResult
	}{
		{
			// Classic three-task rate-monotonic set; R3 converges to 10.
			name: "schedulable-trio",
			tasks: []*Task{
				rtaTask("hi", 1000, 4000, 4000, 3),
				rtaTask("mid", 2000, 6000, 6000, 2),
				rtaTask("lo", 3000, 12000, 12000, 1),
			},
			want: []RTAResult{
				{Task: "hi", WCETNs: 1000, ResponseNs: 1000, Schedulable: true},
				{Task: "mid", WCETNs: 2000, ResponseNs: 3000, Schedulable: true},
				{Task: "lo", WCETNs: 3000, ResponseNs: 10000, Schedulable: true},
			},
		},
		{
			// Same set with the low task inflated to 6 ms: the iteration
			// blows through the 12 ms deadline (first exceeding iterate 13).
			name: "unschedulable-lo",
			tasks: []*Task{
				rtaTask("hi", 1000, 4000, 4000, 3),
				rtaTask("mid", 2000, 6000, 6000, 2),
				rtaTask("lo", 6000, 12000, 12000, 1),
			},
			want: []RTAResult{
				{Task: "hi", WCETNs: 1000, ResponseNs: 1000, Schedulable: true},
				{Task: "mid", WCETNs: 2000, ResponseNs: 3000, Schedulable: true},
				{Task: "lo", WCETNs: 6000, ResponseNs: 13000, Schedulable: false},
			},
		},
		{
			// Exactly-at-the-deadline completion is schedulable (R == D).
			name: "boundary",
			tasks: []*Task{
				rtaTask("hi", 1000, 4000, 4000, 3),
				rtaTask("mid", 2000, 6000, 6000, 2),
				rtaTask("lo", 5000, 12000, 12000, 1),
			},
			want: []RTAResult{
				{Task: "hi", WCETNs: 1000, ResponseNs: 1000, Schedulable: true},
				{Task: "mid", WCETNs: 2000, ResponseNs: 3000, Schedulable: true},
				{Task: "lo", WCETNs: 5000, ResponseNs: 12000, Schedulable: true},
			},
		},
		{
			// FIFO peers at one priority block each other by one job each.
			name: "equal-priority-blocking",
			tasks: []*Task{
				rtaTask("p1", 2000, 10000, 10000, 1),
				rtaTask("p2", 3000, 10000, 10000, 1),
			},
			want: []RTAResult{
				{Task: "p1", WCETNs: 2000, ResponseNs: 5000, Schedulable: true},
				{Task: "p2", WCETNs: 3000, ResponseNs: 5000, Schedulable: true},
			},
		},
		{
			// Constrained deadline: interference pushes the low task past
			// its (short) deadline even though utilisation is fine.
			name: "tight-deadline",
			tasks: []*Task{
				rtaTask("hi", 2000, 5000, 5000, 2),
				rtaTask("lo", 2000, 20000, 3000, 1),
			},
			want: []RTAResult{
				{Task: "hi", WCETNs: 2000, ResponseNs: 2000, Schedulable: true},
				{Task: "lo", WCETNs: 2000, ResponseNs: 4000, Schedulable: false},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ResponseTimeAnalysis(c.tasks, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %d results", len(got))
			}
			for i, w := range c.want {
				if got[i] != w {
					t.Errorf("task %s: got %+v, want %+v", w.Task, got[i], w)
				}
			}
		})
	}
}

func TestRTAContextSwitchInflation(t *testing.T) {
	tasks := []*Task{
		rtaTask("hi", 1000, 4000, 4000, 2),
		rtaTask("lo", 1000, 8000, 8000, 1),
	}
	plain, err := ResponseTimeAnalysis(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ResponseTimeAnalysis(tasks, 100)
	if err != nil {
		t.Fatal(err)
	}
	// C_i inflates by 2*ctx: hi 1000→1200; lo 1000→1200 + one hi job 1200.
	if plain[1].ResponseNs != 2000 || loaded[1].ResponseNs != 2400 {
		t.Fatalf("lo response: plain %d, loaded %d", plain[1].ResponseNs, loaded[1].ResponseNs)
	}
	if loaded[0].WCETNs != 1200 {
		t.Fatalf("hi WCET = %d", loaded[0].WCETNs)
	}
}

func TestRTAErrors(t *testing.T) {
	if _, err := ResponseTimeAnalysis(nil, 0); err == nil {
		t.Error("empty set should fail")
	}
	bad := rtaTask("bad", 1, 0, 0, 1)
	if _, err := ResponseTimeAnalysis([]*Task{bad}, 0); err == nil {
		t.Error("invalid task should fail")
	}
}

// TestRTACrossCheckSimulation closes the loop with the kernel: the
// analysis run on budgeted WCETs must match what the FixedPriority
// scheduler actually does at the critical instant (all offsets zero) —
// observed WorstResponseNs equals the predicted response for distinct
// priorities, and the set flagged unschedulable really misses in
// simulation while the schedulable one does not.
func TestRTACrossCheckSimulation(t *testing.T) {
	simulate := func(specs []*Task) ([]*Task, *Scheduler) {
		k := NewKernel()
		s := NewScheduler(k)
		s.Policy = FixedPriority
		for _, spec := range specs {
			body := &sliceBody{name: spec.Name, total: spec.WorstNs}
			task := &Task{
				Name: spec.Name, Period: spec.Period, Deadline: spec.Deadline,
				Priority: spec.Priority, Slice: body.slice,
			}
			if err := s.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		s.Start()
		k.RunUntil(20 * 12000) // many hyperperiods of the test sets
		return s.Tasks(), s
	}

	schedulable := []*Task{
		rtaTask("hi", 1000, 4000, 4000, 3),
		rtaTask("mid", 2000, 6000, 6000, 2),
		rtaTask("lo", 3000, 12000, 12000, 1),
	}
	predicted, err := ResponseTimeAnalysis(schedulable, 0)
	if err != nil {
		t.Fatal(err)
	}
	ran, _ := simulate(schedulable)
	for i, task := range ran {
		if task.DeadlineMisses != 0 {
			t.Errorf("schedulable set: task %s missed %d deadlines", task.Name, task.DeadlineMisses)
		}
		if task.WorstResponseNs != predicted[i].ResponseNs {
			t.Errorf("task %s: observed worst response %d, RTA predicts %d",
				task.Name, task.WorstResponseNs, predicted[i].ResponseNs)
		}
	}

	unschedulable := []*Task{
		rtaTask("hi", 1000, 4000, 4000, 3),
		rtaTask("mid", 2000, 6000, 6000, 2),
		rtaTask("lo", 6000, 12000, 12000, 1),
	}
	predicted, err = ResponseTimeAnalysis(unschedulable, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Schedulable(predicted) {
		t.Fatal("analysis should reject the inflated set")
	}
	ran, sched := simulate(unschedulable)
	var misses uint64
	for _, task := range ran {
		misses += task.DeadlineMisses
	}
	if misses == 0 {
		t.Error("unschedulable set ran without a single miss — analysis or scheduler wrong")
	}
	// The scheduler-attached form sees the measured WorstNs once the
	// simulation populated it, and agrees with the standalone call.
	again, err := sched.ResponseTimeAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if Schedulable(again) {
		t.Error("post-simulation analysis on measured WCETs should still reject")
	}
}
