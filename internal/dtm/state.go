package dtm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Explicit-state forms of the scheduler: per-task accounting and release
// rhythm, and the live jobs of both policies — FixedPriority's (ready,
// suspended, running, or completed but unlatched) and a suspended
// Cooperative one as JobStates, a completed Cooperative job waiting for
// its latch as a PendingOutputState. Together with KernelState this is
// "the complete execution state of the kernel as a value" — every pending
// kernel event the scheduler owns is recorded as (instant, sequence
// number) and re-armed on restore, so equal-timestamp tie-breaks replay
// exactly. Task values are not part of it: they live in the bodies (board
// RAM on a target).

// TaskState is the portable form of one task's accounting and rhythm.
type TaskState struct {
	Name            string `json:"name"`
	Releases        uint64 `json:"releases"`
	DeadlineMisses  uint64 `json:"deadlineMisses"`
	LastError       string `json:"lastError,omitempty"`
	ExecNs          uint64 `json:"execNs"`
	WorstNs         uint64 `json:"worstNs"`
	Suspensions     uint64 `json:"suspensions,omitempty"`
	Preemptions     uint64 `json:"preemptions,omitempty"`
	ResponseNs      uint64 `json:"responseNs,omitempty"`
	WorstResponseNs uint64 `json:"worstResponseNs,omitempty"`
	NextRelease     uint64 `json:"nextRelease"`
	RelSeq          uint64 `json:"relSeq"`
}

// JobState is the portable form of one release-turned-job.
type JobState struct {
	Task    string `json:"task"`
	Release uint64 `json:"release"`
	Seq     uint64 `json:"seq"`

	UsedNs    uint64 `json:"usedNs,omitempty"`
	Done      bool   `json:"done,omitempty"`
	Failed    bool   `json:"failed,omitempty"`
	Suspended bool   `json:"suspended,omitempty"`
	Latched   bool   `json:"latched,omitempty"`
	Running   bool   `json:"running,omitempty"`

	EndAt    uint64 `json:"endAt,omitempty"`
	WillDone bool   `json:"willDone,omitempty"`
	LatchSeq uint64 `json:"latchSeq,omitempty"`
	EndSeq   uint64 `json:"endSeq,omitempty"`
}

// PendingOutputState is one Cooperative output latch in flight.
type PendingOutputState struct {
	Task string `json:"task"`
	At   uint64 `json:"at"`
	Seq  uint64 `json:"seq"`
}

// JobRef identifies a job across snapshot and restore.
type JobRef struct {
	Task string `json:"task"`
	Seq  uint64 `json:"seq"`
}

// SchedulerState is the complete portable state of a Scheduler (the tasks
// must be re-registered by the caller before Restore — task bodies are
// code, not state).
type SchedulerState struct {
	Policy      uint8  `json:"policy"`
	CtxSwitchNs uint64 `json:"ctxSwitchNs,omitempty"`
	CtxSwitches uint64 `json:"ctxSwitches,omitempty"`
	Halted      bool   `json:"halted,omitempty"`
	JobSeq      uint64 `json:"jobSeq,omitempty"`

	Tasks   []TaskState          `json:"tasks"`
	Jobs    []JobState           `json:"jobs,omitempty"`
	LastJob *JobRef              `json:"lastJob,omitempty"`
	Pending []PendingOutputState `json:"pending,omitempty"`
}

// liveJobs collects every job with pending kernel events or queue
// residency, deduped, in creation (seq) order; Cooperative jobs (all seq
// 0) keep their registry order.
func (s *Scheduler) liveJobs() []*job {
	seen := map[*job]bool{}
	var out []*job
	add := func(j *job) {
		if j != nil && !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	for _, j := range s.unlatched {
		add(j)
	}
	for _, j := range s.ready {
		add(j)
	}
	for _, j := range s.susp {
		add(j)
	}
	add(s.running)
	slices.SortStableFunc(out, func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// Snapshot captures the scheduler's complete state. Call it only at a
// kernel quiescent point (a RunUntil boundary): no event with timestamp
// <= now may still be pending.
func (s *Scheduler) Snapshot() SchedulerState {
	st := SchedulerState{
		Policy:      uint8(s.Policy),
		CtxSwitchNs: s.CtxSwitchNs,
		CtxSwitches: s.CtxSwitches,
		Halted:      s.halted,
		JobSeq:      s.jobSeq,
	}
	for _, t := range s.tasks {
		ts := TaskState{
			Name: t.Name, Releases: t.Releases, DeadlineMisses: t.DeadlineMisses,
			ExecNs: t.ExecNs, WorstNs: t.WorstNs, Suspensions: t.Suspensions,
			Preemptions: t.Preemptions, ResponseNs: t.ResponseNs,
			WorstResponseNs: t.WorstResponseNs,
			NextRelease:     s.nextRel[t].at, RelSeq: s.nextRel[t].seq,
		}
		if t.LastError != nil {
			ts.LastError = t.LastError.Error()
		}
		st.Tasks = append(st.Tasks, ts)
	}
	for _, j := range s.liveJobs() {
		if j.done && s.Policy == Cooperative {
			st.Pending = append(st.Pending, PendingOutputState{
				Task: j.t.Name, At: j.release + j.t.Deadline, Seq: j.latchSeq,
			})
			continue
		}
		st.Jobs = append(st.Jobs, JobState{
			Task: j.t.Name, Release: j.release, Seq: j.seq,
			UsedNs: j.usedNs, Done: j.done, Failed: j.failed,
			Suspended: j.suspended, Latched: j.latched,
			Running: j == s.running,
			EndAt:   j.endAt, WillDone: j.willDone,
			LatchSeq: j.latchSeq, EndSeq: j.endSeq,
		})
	}
	if s.lastJob != nil {
		st.LastJob = &JobRef{Task: s.lastJob.t.Name, Seq: s.lastJob.seq}
	}
	return st
}

// Restore rewinds the scheduler to a snapshot and re-arms every pending
// release, latch, slice-end and output event on the kernel with its
// original instant and sequence number. The kernel must have been
// Restored (event queue cleared) first, and the task set registered via
// AddTask must match the snapshot's by name.
func (s *Scheduler) Restore(st SchedulerState) error {
	byName := make(map[string]*Task, len(s.tasks))
	for _, t := range s.tasks {
		byName[t.Name] = t
	}
	if len(st.Tasks) != len(s.tasks) {
		return fmt.Errorf("dtm: restore with %d task states onto %d registered tasks", len(st.Tasks), len(s.tasks))
	}

	s.Policy = Policy(st.Policy)
	s.CtxSwitchNs = st.CtxSwitchNs
	s.CtxSwitches = st.CtxSwitches
	s.halted = st.Halted
	s.jobSeq = st.JobSeq
	// The abandoned timeline's jobs go back to the pool: the kernel queue,
	// the only other holder of their callbacks, was cleared first. A
	// recycled job has a nil task, so a job held twice is recycled once.
	for _, set := range [...][]*job{s.ready, s.susp, s.unlatched, {s.running, s.lastJob}} {
		for _, j := range set {
			if j != nil && j.t != nil {
				s.recycle(j)
			}
		}
	}
	s.ready = s.ready[:0]
	s.susp = s.susp[:0]
	s.running = nil
	s.lastJob = nil
	s.unlatched = s.unlatched[:0]
	s.nextRel = map[*Task]relSlot{}

	for _, ts := range st.Tasks {
		t, ok := byName[ts.Name]
		if !ok {
			return fmt.Errorf("dtm: restore of unknown task %q", ts.Name)
		}
		t.Releases = ts.Releases
		t.DeadlineMisses = ts.DeadlineMisses
		t.LastError = nil
		if ts.LastError != "" {
			t.LastError = errors.New(ts.LastError)
		}
		t.ExecNs, t.WorstNs = ts.ExecNs, ts.WorstNs
		t.Suspensions = ts.Suspensions
		t.Preemptions = ts.Preemptions
		t.ResponseNs, t.WorstResponseNs = ts.ResponseNs, ts.WorstResponseNs
		s.nextRel[t] = relSlot{at: ts.NextRelease, seq: ts.RelSeq}
		task := t
		if err := s.K.Rearm(ts.NextRelease, ts.RelSeq, func(now uint64) { s.release(task, now) }); err != nil {
			return fmt.Errorf("dtm: restore task %s release: %w", ts.Name, err)
		}
	}

	for _, js := range st.Jobs {
		t, ok := byName[js.Task]
		if !ok {
			return fmt.Errorf("dtm: restore job of unknown task %q", js.Task)
		}
		j := s.newJob()
		*j = job{
			t: t, release: js.Release, seq: js.Seq,
			usedNs: js.UsedNs, done: js.Done, failed: js.Failed,
			suspended: js.Suspended, latched: js.Latched,
			endAt: js.EndAt, willDone: js.WillDone,
			latchSeq: js.LatchSeq, endSeq: js.EndSeq,
			latchFn: j.latchFn, endFn: j.endFn,
		}
		if !j.latched && s.Policy == FixedPriority {
			s.unlatched = append(s.unlatched, j)
			if err := s.K.Rearm(j.release+t.Deadline, j.latchSeq, j.latchFn); err != nil {
				return fmt.Errorf("dtm: restore job %s/%d latch: %w", js.Task, js.Seq, err)
			}
		}
		switch {
		case js.Running:
			s.running = j
			if err := s.K.Rearm(j.endAt, j.endSeq, j.endFn); err != nil {
				return fmt.Errorf("dtm: restore job %s/%d slice end: %w", js.Task, js.Seq, err)
			}
		case j.suspended:
			s.susp = append(s.susp, j)
		case !j.done && !j.failed:
			s.ready.push(j)
		}
		if st.LastJob != nil && st.LastJob.Task == js.Task && st.LastJob.Seq == js.Seq {
			s.lastJob = j
		}
	}
	if st.LastJob != nil && s.lastJob == nil {
		// The job the CPU last ran is already dead; keep a placeholder with
		// the same identity so the next dispatch still charges (or skips)
		// the context switch exactly as the live timeline would have.
		if t, ok := byName[st.LastJob.Task]; ok {
			j := s.newJob()
			j.t, j.seq, j.done, j.latched, j.dead = t, st.LastJob.Seq, true, true, true
			s.lastJob = j
		}
	}

	for _, ps := range st.Pending {
		t, ok := byName[ps.Task]
		if !ok {
			return fmt.Errorf("dtm: restore pending output of unknown task %q", ps.Task)
		}
		j := s.newJob()
		j.t, j.release, j.done, j.latchSeq = t, ps.At-t.Deadline, true, ps.Seq
		s.unlatched = append(s.unlatched, j)
		if err := s.K.Rearm(ps.At, ps.Seq, j.latchFn); err != nil {
			return fmt.Errorf("dtm: restore pending output %s: %w", ps.Task, err)
		}
	}
	return nil
}
