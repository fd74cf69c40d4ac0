// Package dtm implements Distributed Timed Multitasking, the model of
// computation underlying COMDES (Sec. III of the paper): "input and output
// signals are latched at task (transaction) start and deadline instants,
// respectively, resulting in the elimination of I/O jitter at both actor
// task and transaction levels."
//
// The package provides a deterministic discrete-event kernel over virtual
// time, periodic tasks with release/deadline latching, a multi-node signal
// network with transmission latency, and jitter instrumentation used by
// the reproduction experiments to demonstrate the jitter-elimination
// property. A multi-node cluster runs every node, and every network event,
// on one shared Kernel.
package dtm

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/value"
)

// ErrSuspended is returned by Task.Slice when a target-resident debugger
// halted the run mid-body (an on-target breakpoint or step hit). Under
// both policies the scheduler treats it as a suspension, not a failure:
// the suspension is counted, LastError stays clear, the job keeps the cost
// it has used so far and is parked until Resume continues it, and the time
// it spends parked is never a deadline miss. When the continued job
// completes, its whole cost is charged and its deadline latch is made up:
// at the deadline instant while that is still ahead, at once otherwise.
var ErrSuspended = errors.New("dtm: execution suspended by debugger")

// Unbounded is the Slice budget of a Cooperative job: one call runs the
// body to completion, to a suspension or to a failure, at the release
// instant or at the instant Resume continues a suspended job.
const Unbounded = ^uint64(0)

// event is one scheduled callback.
type event struct {
	at      uint64
	schedAt uint64 // instant the event was scheduled (enqueue time)
	seq     uint64 // FIFO tie-break for equal timestamps
	fn      func(now uint64)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

// Less orders events by (at, schedAt, seq). For kernel-assigned seqs this
// is the same order as the historical (at, seq): seq is assigned in
// execution order, so it is monotone in the schedule instant and schedAt
// can never invert a seq comparison. The schedAt component matters for
// network deliveries, which carry a sequence number from a separate
// (DeliveryBase) number space: their enqueue instant places them among
// the kernel's own events.
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].schedAt != h[j].schedAt {
		return h[i].schedAt < h[j].schedAt
	}
	return h[i].seq < h[j].seq
}

// push enqueues an event — container/heap's Push specialised to the
// element type, so the hot scheduling path does not box every event into
// an interface (one heap allocation per scheduled callback).
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	a := *h
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !a.Less(j, i) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

// pop dequeues the minimum event — container/heap's Pop specialised to
// the element type. The vacated slot is zeroed so the heap does not pin
// the popped callback's closure. Less is a strict total order
// ((at, schedAt, seq) never ties), so the pop sequence is identical to
// the generic implementation's.
func (h *eventHeap) pop() event {
	a := *h
	last := len(a) - 1
	a[0], a[last] = a[last], a[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && a.Less(r, l) {
			m = r
		}
		if !a.Less(m, i) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	ev := a[last]
	a[last] = event{}
	*h = a[:last]
	return ev
}

// Kernel is a single-threaded discrete-event simulator over nanosecond
// virtual time.
type Kernel struct {
	now uint64
	seq uint64
	pq  eventHeap
	ran uint64

	// running guards against re-entrant execution: an event callback (or a
	// second goroutine) calling back into Step/RunUntil would
	// interleave two pops on one heap — silent corruption. Scheduling from
	// inside an event stays legal; running does not.
	running bool

	// rearmSched maps pending-event seq -> original schedule instant,
	// stashed by Restore from KernelState.SchedAts so Rearm can re-enqueue
	// each event with its original (at, schedAt, seq) identity without any
	// owner snapshot carrying the extra field.
	rearmSched map[uint64]uint64
}

// NewKernel creates a kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() uint64 { return k.now }

// Pending returns the number of events in the heap. Events a TDMA
// Network holds back (queued departures behind their owner's head and,
// on a shared kernel, the deliveries of frames not yet departed) are not
// counted: they enter the heap when they come due.
func (k *Kernel) Pending() int { return len(k.pq) }

// Executed returns the number of events run so far.
func (k *Kernel) Executed() uint64 { return k.ran }

// Schedule runs fn at absolute time at (>= now). Scheduling in the past is
// an error and the event is NOT enqueued: a past event would execute
// "before now" on the next pop, silently reordering history. Rearm is the
// only past-tolerant path.
func (k *Kernel) Schedule(at uint64, fn func(now uint64)) error {
	_, err := k.ScheduleTagged(at, fn)
	return err
}

// ScheduleTagged is Schedule returning the sequence number assigned to the
// event. Owners of snapshotable pending work (the scheduler's releases and
// latches, the network's in-flight frames) record it so a restore can
// re-arm the event with the same FIFO tie-break position — equal-timestamp
// ordering is part of the deterministic schedule.
func (k *Kernel) ScheduleTagged(at uint64, fn func(now uint64)) (uint64, error) {
	if at < k.now {
		return 0, fmt.Errorf("dtm: schedule at %d before now %d", at, k.now)
	}
	k.seq++
	k.pq.push(event{at: at, schedAt: k.now, seq: k.seq, fn: fn})
	return k.seq, nil
}

// ReserveSeq takes the next sequence number without enqueueing anything:
// the number is the event's tie-break position, as if it had been
// scheduled now. The network reserves a queued frame's departure seq at
// send and arms the event only when the frame reaches the head of its TX
// queue.
func (k *Kernel) ReserveSeq() uint64 {
	k.seq++
	return k.seq
}

// arm enqueues an event whose (at, schedAt, seq) identity was fixed
// earlier (a held-back network event coming due, or one re-armed by a
// restore) and drops the restore-time schedule entry of that seq. Like
// Rearm it is past-tolerant.
func (k *Kernel) arm(at, schedAt, seq uint64, fn func(now uint64)) {
	k.forget(seq)
	k.pq.push(event{at: at, schedAt: schedAt, seq: seq, fn: fn})
}

// forget drops the restore-time schedule entry of seq: its owner re-arms
// the event with an explicit identity, or holds it back.
func (k *Kernel) forget(seq uint64) { delete(k.rearmSched, seq) }

// ScheduleAt enqueues an event with an explicit (at, schedAt, seq)
// identity, without touching the kernel's own sequence counter. This is
// how network deliveries enter the kernel: their ordering identity was
// fixed at send (or is restored from a checkpoint). Callers own the seq
// number space (the network uses a dedicated high range so it can never
// collide with kernel-assigned seqs).
func (k *Kernel) ScheduleAt(at, schedAt, seq uint64, fn func(now uint64)) error {
	if at < k.now {
		return fmt.Errorf("dtm: schedule at %d before now %d", at, k.now)
	}
	k.pq.push(event{at: at, schedAt: schedAt, seq: seq, fn: fn})
	return nil
}

// Rearm re-enqueues a pending event with its original sequence number —
// the restore path. Unlike Schedule it never advances the kernel's seq
// counter, so re-arming the pending set in any order reproduces the exact
// event ordering of the snapshotted timeline. The schedule instant is
// recovered from the KernelState.SchedAts table stashed by Restore.
//
// Rearm is deliberately past-tolerant (the one scheduling path that is):
// a restore may land exactly on an event's instant, and replay tooling
// re-arms work relative to a clock it is about to rewind. A past event
// runs on the next pop with the clock clamped monotone.
func (k *Kernel) Rearm(at, seq uint64, fn func(now uint64)) error {
	schedAt, ok := k.rearmSched[seq]
	if ok {
		delete(k.rearmSched, seq)
	} else if schedAt = k.now; at < schedAt {
		schedAt = at
	}
	k.pq.push(event{at: at, schedAt: schedAt, seq: seq, fn: fn})
	return nil
}

// KernelState is the portable form of the kernel clock. The event queue
// itself holds closures and is deliberately NOT part of it: every pending
// event is owned by some layer (scheduler, network, board) whose own
// snapshot records the event's instant and sequence number and whose
// restore re-arms it via Rearm. Arbitrary user events scheduled directly
// with Schedule/After are outside the checkpoint contract.
type KernelState struct {
	Now uint64 `json:"now"`
	Seq uint64 `json:"seq"`
	Ran uint64 `json:"ran"`
	// SchedAts maps each pending event's sequence number to the instant it
	// was scheduled — the middle component of the (at, schedAt, seq) event
	// order. Owners re-arm events by (at, seq) only; Restore stashes this
	// table so Rearm can recover the third coordinate. Without it, a
	// restored timeline could reorder equal-instant events whose schedule
	// instants differ (a bus delivery vs a dispatch scheduled at its own
	// instant).
	SchedAts map[uint64]uint64 `json:"schedAts,omitempty"`
}

// Snapshot captures the kernel clock and counters, plus the schedule
// instants of every pending event (keyed by seq) for Rearm.
func (k *Kernel) Snapshot() KernelState {
	st := KernelState{Now: k.now, Seq: k.seq, Ran: k.ran}
	if len(k.pq) > 0 {
		st.SchedAts = make(map[uint64]uint64, len(k.pq))
		for _, ev := range k.pq {
			st.SchedAts[ev.seq] = ev.schedAt
		}
	}
	return st
}

// Restore rewinds the clock and counters and clears the event queue; the
// owners of pending work re-arm their events afterwards. Restore is the
// one operation that may move the clock backwards (rewind).
func (k *Kernel) Restore(st KernelState) {
	k.now = st.Now
	k.seq = st.Seq
	k.ran = st.Ran
	k.pq = k.pq[:0]
	k.rearmSched = nil
	if len(st.SchedAts) > 0 {
		k.rearmSched = make(map[uint64]uint64, len(st.SchedAts))
		for seq, at := range st.SchedAts {
			k.rearmSched[seq] = at
		}
	}
}

// After runs fn delay nanoseconds from now.
func (k *Kernel) After(delay uint64, fn func(now uint64)) {
	_ = k.Schedule(k.now+delay, fn)
}

// Step executes the earliest pending event; false when idle. The clock is
// clamped monotone: a past event re-armed by restore tooling runs at the
// current instant instead of dragging time backwards.
func (k *Kernel) Step() bool {
	if len(k.pq) == 0 {
		return false
	}
	k.enter()
	defer k.leave()
	k.step()
	return true
}

// step pops and runs one event; the caller holds the running guard.
func (k *Kernel) step() {
	ev := k.pq.pop()
	if ev.at > k.now {
		k.now = ev.at
	}
	k.ran++
	ev.fn(k.now)
}

func (k *Kernel) enter() {
	if k.running {
		panic("dtm: re-entrant kernel run (Step/RunUntil from inside an event or a second goroutine)")
	}
	k.running = true
}

func (k *Kernel) leave() { k.running = false }

// RunUntil executes every event with timestamp <= t, then advances the
// clock to t.
func (k *Kernel) RunUntil(t uint64) {
	k.enter()
	defer k.leave()
	for len(k.pq) > 0 && k.pq[0].at <= t {
		k.step()
	}
	if t > k.now {
		k.now = t
	}
}

// Store is a node-local signal board implementing COMDES state-message
// communication: non-blocking, latest-value semantics.
type Store struct {
	vals map[string]value.Value
	// OnChange, when set, observes every write that changes a value
	// (signal, old, new, time). The debugger's jitter instrumentation and
	// the timing-diagram recorder hook here.
	OnChange func(now uint64, signal string, old, new value.Value)
	now      func() uint64
}

// NewStore creates a signal board; clock supplies timestamps for OnChange
// (nil means "always 0").
func NewStore(clock func() uint64) *Store {
	if clock == nil {
		clock = func() uint64 { return 0 }
	}
	return &Store{vals: map[string]value.Value{}, now: clock}
}

// Set publishes a signal value (non-blocking overwrite).
func (s *Store) Set(signal string, v value.Value) {
	old := s.vals[signal]
	s.vals[signal] = v
	if s.OnChange != nil && !value.Equal(old, v) {
		s.OnChange(s.now(), signal, old, v)
	}
}

// Get reads the latest value of a signal (zero Value if never written).
func (s *Store) Get(signal string) value.Value { return s.vals[signal] }

// StoreState is the portable, deep-copied form of a Store's contents.
type StoreState map[string]value.Encoded

// Snapshot deep-copies the current board contents into the layer-snapshot
// form: every value is re-encoded, so a restore can never alias state that
// a live store keeps mutating.
func (s *Store) Snapshot() StoreState {
	return StoreState(value.EncodeMap(s.vals))
}

// Restore replaces the store contents with a snapshot. OnChange does not
// fire — a restore is a rewind, not a publication.
func (s *Store) Restore(st StoreState) error {
	vals, err := value.DecodeMap(st)
	if err != nil {
		return fmt.Errorf("dtm: store restore: %w", err)
	}
	if vals == nil {
		vals = map[string]value.Value{}
	}
	s.vals = vals
	return nil
}

// Task is a periodic DTM task. The three phases are split so the kernel
// can enforce the latching discipline:
//
//	release instant r:      Latch(r)               (input latching)
//	execution:              Slice(r, now, budget)  (the body, resumable)
//	deadline instant r+D:   Output(r+D)            (output latching)
//
// Task values live where the body keeps them (board RAM on a target); the
// scheduler only decides when each phase runs. Under the Cooperative
// policy the body runs at the release instant as one Slice with the
// Unbounded budget and reports its virtual execution cost; cost > Deadline
// is a deadline miss (counted, outputs still latched at the deadline — the
// overrun policy real COMDES kernels apply to soft tasks). Under
// FixedPriority the release becomes a resumable job scheduled by Priority
// in budgeted slices; the miss is detected at the deadline latch when the
// job has not completed.
type Task struct {
	Name     string
	Period   uint64
	Offset   uint64
	Deadline uint64

	// Priority orders jobs under the FixedPriority policy: higher values
	// preempt lower ones; equal priorities break ties FIFO by release
	// order. Ignored by the Cooperative policy.
	Priority int

	// Latch and Output, when set, run at the release and deadline instants.
	Latch  func(now uint64)
	Output func(now uint64)

	// Slice is the task's body: it executes up to budgetNs of the release
	// that started at the release instant (all of it for Unbounded) and
	// reports the virtual time consumed and whether the body completed.
	// The scheduler guarantees slices of the same task are strictly
	// sequential per release (release identifies which job the slice
	// belongs to).
	Slice func(release, now, budgetNs uint64) (usedNs uint64, done bool, err error)

	Releases       uint64
	DeadlineMisses uint64
	LastError      error

	// Response-time accounting: total and worst-case virtual execution
	// cost per release. On-target breakpoint checks inflate the cost the
	// VM reports, so debugger overhead shows up here — and, when a release
	// overruns its deadline because of it, in DeadlineMisses and the
	// jitter experiments.
	ExecNs  uint64
	WorstNs uint64
	// Suspensions counts releases interrupted mid-body by ErrSuspended.
	Suspensions uint64

	// Preemptions counts the times a running job of this task was kicked
	// off the CPU by a higher-priority release (FixedPriority only).
	Preemptions uint64

	// relFn caches the scheduler's release callback for this task so the
	// periodic re-arm inside release() does not allocate a fresh closure
	// every period. Owned by the scheduler the task is registered with.
	relFn func(now uint64)
	// ResponseNs / WorstResponseNs accumulate release-to-completion times
	// (FixedPriority only): unlike ExecNs they include the time jobs spent
	// waiting in the ready queue and being preempted.
	ResponseNs      uint64
	WorstResponseNs uint64
}

// Validate checks the task's timing and hooks.
func (t *Task) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("dtm: task with empty name")
	}
	if t.Period == 0 || t.Deadline == 0 || t.Deadline > t.Period {
		return fmt.Errorf("dtm: task %s: bad timing (period %d, deadline %d)", t.Name, t.Period, t.Deadline)
	}
	if t.Slice == nil {
		return fmt.Errorf("dtm: task %s: no Slice", t.Name)
	}
	return nil
}

// Policy selects how the scheduler turns releases into CPU time.
type Policy uint8

// Scheduling policies.
const (
	// Cooperative runs every release to completion at its release instant
	// at zero modeled preemption cost — Task.Priority is ignored.
	Cooperative Policy = iota
	// FixedPriority is preemptive fixed-priority scheduling: each release
	// becomes a resumable job on a ready queue keyed by Task.Priority
	// (FIFO within a priority). The CPU runs the highest-priority job in
	// budgeted slices bounded by the next release instant of any task, so
	// a higher-priority release arriving mid-body preempts the running job
	// at the next slice boundary. Deadline misses are detected at the
	// deadline latch; an unfinished job late-publishes at completion.
	FixedPriority
)

// Scheduler drives a set of tasks on a kernel.
type Scheduler struct {
	K *Kernel

	// Policy selects cooperative (default) or preemptive fixed-priority
	// execution. Set it before Start.
	Policy Policy
	// CtxSwitchNs is the cost charged whenever the FixedPriority CPU
	// dispatches a different job than the one it last ran (context load).
	CtxSwitchNs uint64
	// CtxSwitches counts charged context switches.
	CtxSwitches uint64

	// OnPreempt observes every preemption: the job of task `preempted`
	// left the CPU at a slice boundary because `by` has higher priority.
	OnPreempt func(now uint64, preempted, by *Task)
	// OnDeadlineMiss observes every genuine overrun, at the deadline latch
	// instant (debugger suspensions are not misses).
	OnDeadlineMiss func(now uint64, t *Task)
	// OnCtxSwitch observes every charged context switch (the board charges
	// the CPU cycle cost here).
	OnCtxSwitch func(now uint64, t *Task)

	tasks  []*Task
	halted bool
	susp   []*job // jobs parked by ErrSuspended (debugger), either policy

	// FixedPriority state.
	ready   jobHeap
	running *job
	lastJob *job
	jobSeq  uint64
	// nextRel is the next *scheduled* release per task: its instant plus
	// the kernel seq of the pending event (for snapshot re-arming).
	nextRel map[*Task]relSlot

	// unlatched are the live jobs whose deadline-latch event has not fired
	// yet — the explicit registry a snapshot serializes (a job is reachable
	// from here even when it already completed and only its latch instant
	// is outstanding). A FixedPriority job joins at release; a Cooperative
	// one when it completes with its deadline still ahead.
	unlatched []*job

	// freeJobs are retired jobs kept for reuse with their cached kernel
	// callbacks, so a fixed-priority release allocates nothing once warm.
	freeJobs []*job
	// dispatchFn caches the deferred-dispatch callback.
	dispatchFn func(now uint64)
}

// relSlot is one pending release event.
type relSlot struct{ at, seq uint64 }

// NewScheduler wraps a kernel.
func NewScheduler(k *Kernel) *Scheduler {
	return &Scheduler{K: k, nextRel: map[*Task]relSlot{}}
}

// Tasks returns the registered tasks.
func (s *Scheduler) Tasks() []*Task { return s.tasks }

// AddTask registers and validates a task; Start schedules it.
func (s *Scheduler) AddTask(t *Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for _, ex := range s.tasks {
		if ex.Name == t.Name {
			return fmt.Errorf("dtm: duplicate task %q", t.Name)
		}
	}
	s.tasks = append(s.tasks, t)
	return nil
}

// Start schedules the first release of every task at its offset.
func (s *Scheduler) Start() {
	for _, t := range s.tasks {
		task := t
		at := s.K.Now() + task.Offset
		if task.relFn == nil {
			task.relFn = func(now uint64) { s.release(task, now) }
		}
		seq, _ := s.K.ScheduleTagged(at, task.relFn)
		s.nextRel[task] = relSlot{at: at, seq: seq}
	}
}

// Halt suspends releases (the debugger "pausing the target"); already
// latched outputs still emit at their deadlines, matching a CPU halted
// between task instances. Under FixedPriority a job caught mid-body stays
// frozen on the ready queue and continues on Resume.
func (s *Scheduler) Halt() { s.halted = true }

// Resume re-enables releases and continues every job parked by a
// debugger suspension. Under FixedPriority the parked jobs re-enter the
// ready queue — priority order decides what runs next, so a
// higher-priority release that arrived while halted runs before the
// interrupted body continues. Under Cooperative a parked job runs on at
// once, as one Unbounded slice; it may suspend again.
func (s *Scheduler) Resume() {
	s.halted = false
	now := s.K.Now()
	if s.Policy == FixedPriority {
		for _, j := range s.susp {
			j.suspended = false
			s.ready.push(j)
		}
		s.susp = s.susp[:0]
		s.dispatch(now)
		return
	}
	for len(s.susp) > 0 && !s.halted {
		j := s.susp[0]
		s.susp = slices.Delete(s.susp, 0, 1)
		j.suspended = false
		s.runCooperative(j, now)
	}
}

// Halted reports the halt state.
func (s *Scheduler) Halted() bool { return s.halted }

// Suspended reports whether a job is parked by a debugger suspension.
func (s *Scheduler) Suspended() bool { return len(s.susp) > 0 }

func (s *Scheduler) release(t *Task, now uint64) {
	// Schedule the next period first so halting never loses the rhythm.
	if t.relFn == nil {
		t.relFn = func(n uint64) { s.release(t, n) }
	}
	seq, _ := s.K.ScheduleTagged(now+t.Period, t.relFn)
	s.nextRel[t] = relSlot{at: now + t.Period, seq: seq}
	if s.halted {
		return
	}
	t.Releases++
	if t.Latch != nil {
		t.Latch(now)
	}
	j := s.newJob()
	j.t, j.release = t, now
	if s.Policy == Cooperative {
		s.runCooperative(j, now)
		return
	}
	j.seq = s.jobSeq
	s.jobSeq++
	s.ready.push(j)
	s.armLatch(j, now+t.Deadline)
	s.dispatch(now)
}

// armLatch registers j as unlatched and schedules its deadline latch at
// instant at.
func (s *Scheduler) armLatch(j *job, at uint64) {
	s.unlatched = append(s.unlatched, j)
	j.latchSeq, _ = s.K.ScheduleTagged(at, j.latchFn)
}

// runCooperative runs a Cooperative job as one Unbounded slice at now: the
// release instant, or the instant Resume continues a suspended job.
func (s *Scheduler) runCooperative(j *job, now uint64) {
	used, _, err := j.t.Slice(j.release, now, Unbounded)
	j.usedNs += used
	if err != nil {
		s.stop(j, err)
		return
	}
	s.complete(j, now)
}

// stop ends a slice that returned err and reports whether ErrSuspended
// parked the job. Any other error fails the release: no charge, no
// publish, and the job retires once no latch event holds it.
func (s *Scheduler) stop(j *job, err error) bool {
	if errors.Is(err, ErrSuspended) {
		j.t.Suspensions++
		j.suspended = true
		s.susp = append(s.susp, j)
		return true
	}
	j.t.LastError = err
	j.failed = true
	if j.latched || s.Policy == Cooperative {
		s.retire(j)
	}
	return false
}

// job is one release the scheduler has started, under either policy: a
// resumable unit of work from its release until it is dead — finished
// (done or failed) with its deadline latch fired or never armed — and
// recycled. Until then the kernel or the suspension list holds it.
type job struct {
	t       *Task
	release uint64
	seq     uint64 // FIFO tie-break within a priority (release order; FixedPriority only)

	usedNs    uint64
	done      bool
	failed    bool
	suspended bool
	latched   bool // the deadline latch instant has passed

	// endAt/willDone describe the slice currently on the CPU, so the latch
	// can recognise a job completing exactly at its deadline instant.
	endAt    uint64
	willDone bool

	// latchSeq/endSeq are the kernel sequence numbers of this job's pending
	// deadline-latch and slice-end events, recorded so a snapshot restore
	// re-arms them in their original tie-break positions.
	latchSeq uint64
	endSeq   uint64

	// dead marks a finished job whose latch has fired; it is kept (not
	// recycled) only while it is the scheduler's lastJob.
	dead bool

	// latchFn and endFn are the job's cached kernel callbacks: the
	// deadline latch, and the end of the slice on the CPU (a completion
	// when the slice finishes the body, a slice boundary otherwise).
	latchFn func(now uint64)
	endFn   func(now uint64)
}

// newJob returns a zeroed job, recycled when one is free, with its
// callbacks bound.
func (s *Scheduler) newJob() *job {
	if n := len(s.freeJobs); n > 0 {
		j := s.freeJobs[n-1]
		s.freeJobs = s.freeJobs[:n-1]
		return j
	}
	j := &job{}
	j.latchFn = func(n uint64) { s.latch(j, n) }
	j.endFn = func(n uint64) {
		if j.willDone {
			s.finish(j, n)
		} else {
			s.sliceEnd(j, n)
		}
	}
	return j
}

// retire marks a finished job whose latch has fired as dead and recycles
// it, unless it is lastJob: a snapshot still names that one, and the next
// dispatch compares against it.
func (s *Scheduler) retire(j *job) {
	j.dead = true
	if j != s.lastJob {
		s.recycle(j)
	}
}

func (s *Scheduler) recycle(j *job) {
	latchFn, endFn := j.latchFn, j.endFn
	*j = job{latchFn: latchFn, endFn: endFn}
	s.freeJobs = append(s.freeJobs, j)
}

// jobHeap orders ready jobs: highest Priority first, FIFO within equals.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].t.Priority != h[j].t.Priority {
		return h[i].t.Priority > h[j].t.Priority
	}
	return h[i].seq < h[j].seq
}

// push and pop are container/heap's operations specialised to *job (no
// interface boxing on the dispatch path); the vacated slot is nilled so
// the queue does not pin finished jobs. The (Priority, seq) order is
// strict and total, so pop order matches the generic implementation.
func (h *jobHeap) push(j *job) {
	*h = append(*h, j)
	a := *h
	c := len(a) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !a.Less(c, p) {
			break
		}
		a[p], a[c] = a[c], a[p]
		c = p
	}
}

func (h *jobHeap) pop() *job {
	a := *h
	last := len(a) - 1
	a[0], a[last] = a[last], a[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && a.Less(r, l) {
			m = r
		}
		if !a.Less(m, i) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	j := a[last]
	a[last] = nil
	*h = a[:last]
	return j
}

// nextPendingRelease returns the earliest release instant scheduled in the
// kernel that has not fired yet — the CPU's preemption horizon.
func (s *Scheduler) nextPendingRelease() uint64 {
	min := ^uint64(0)
	for _, slot := range s.nextRel {
		if slot.at < min {
			min = slot.at
		}
	}
	return min
}

// dispatch puts the highest-priority ready job on the CPU and runs one
// budgeted slice of it. The budget ends at the next release instant of any
// task, so every preemption opportunity lands on a slice boundary; the
// body may overshoot the boundary by the instruction in flight.
func (s *Scheduler) dispatch(now uint64) {
	if s.halted || s.running != nil || len(s.ready) == 0 {
		return
	}
	horizon := s.nextPendingRelease()
	if horizon <= now {
		// A release at this very instant has not fired yet; decide after
		// it has enqueued its job.
		if s.dispatchFn == nil {
			s.dispatchFn = func(n uint64) { s.dispatch(n) }
		}
		_ = s.K.Schedule(now, s.dispatchFn)
		return
	}
	j := s.ready.pop()
	s.running = j
	var ctx uint64
	if s.lastJob != j && s.CtxSwitchNs > 0 {
		ctx = s.CtxSwitchNs
		s.CtxSwitches++
		if s.OnCtxSwitch != nil {
			s.OnCtxSwitch(now, j.t)
		}
	}
	if last := s.lastJob; last != j && last != nil && last.dead {
		s.recycle(last)
	}
	s.lastJob = j
	budget := horizon - now
	if ctx >= budget {
		// The switch itself consumes the slice; the body runs next time.
		j.endAt, j.willDone = now+ctx, false
		j.endSeq, _ = s.K.ScheduleTagged(now+ctx, j.endFn)
		return
	}
	budget -= ctx
	used, done, err := j.t.Slice(j.release, now, budget)
	j.usedNs += used
	if err != nil {
		s.running = nil
		if !s.stop(j, err) {
			s.dispatch(now) // a failure leaves the CPU free; a suspension halted it
		}
		return
	}
	end := now + ctx + used
	j.endAt, j.willDone = end, done
	j.endSeq, _ = s.K.ScheduleTagged(end, j.endFn)
}

// sliceEnd is the CPU giving up the core at a slice boundary with the job
// unfinished: the job re-enters the ready queue, and if something with
// higher priority is now ahead of it, that is a preemption.
func (s *Scheduler) sliceEnd(j *job, now uint64) {
	s.running = nil
	s.ready.push(j)
	if s.halted {
		return // frozen mid-body; Resume re-dispatches
	}
	if top := s.ready[0]; top != j {
		j.t.Preemptions++
		if s.OnPreempt != nil {
			s.OnPreempt(now, j.t, top.t)
		}
	}
	s.dispatch(now)
}

// finish is the end of a FixedPriority job's last slice: response-time
// accounting, completion, and the next dispatch.
func (s *Scheduler) finish(j *job, now uint64) {
	s.running = nil
	resp := now - j.release
	j.t.ResponseNs += resp
	if resp > j.t.WorstResponseNs {
		j.t.WorstResponseNs = resp
	}
	s.complete(j, now)
	s.dispatch(now)
}

// complete finalises a finished job under either policy: its whole cost,
// across preemptions and suspensions, is charged, and its output publishes
// at once when the latch instant has passed (a missed or suspended
// release), at the latch otherwise — armed at release under FixedPriority,
// here under Cooperative, where a cost above the deadline is a miss.
func (s *Scheduler) complete(j *job, now uint64) {
	j.done = true
	t := j.t
	t.ExecNs += j.usedNs
	if j.usedNs > t.WorstNs {
		t.WorstNs = j.usedNs
	}
	if s.Policy == Cooperative {
		if j.usedNs > t.Deadline {
			t.DeadlineMisses++
		}
		if d := j.release + t.Deadline; d > now && t.Output != nil {
			s.armLatch(j, d)
		} else {
			j.latched = true
		}
	}
	if j.latched {
		if t.Output != nil {
			t.Output(now)
		}
		s.retire(j)
	}
}

// latch fires at the release's deadline instant. A completed job publishes
// on time; an unfinished one is a deadline miss — counted here, at the
// latch — unless the debugger suspended it (ErrSuspended semantics: the
// latch is made up on completion, no miss charged). A job whose final
// slice ends exactly at this instant completes on time.
func (s *Scheduler) latch(j *job, now uint64) {
	for i, u := range s.unlatched {
		if u == j {
			s.unlatched = append(s.unlatched[:i], s.unlatched[i+1:]...)
			break
		}
	}
	if j.failed {
		s.retire(j)
		return
	}
	if j.done {
		if j.t.Output != nil {
			j.t.Output(now)
		}
		s.retire(j)
		return
	}
	j.latched = true
	if j.suspended || s.halted {
		return
	}
	if s.running == j && j.willDone && j.endAt == now {
		return // finishing exactly at the deadline: met, publish in complete
	}
	j.t.DeadlineMisses++
	if s.OnDeadlineMiss != nil {
		s.OnDeadlineMiss(now, j.t)
	}
}

// JitterRecorder observes a Store and records the set of distinct times at
// which a given signal changed, modulo the task period — for a jitter-free
// system all output changes of an actor fall on deadline instants, so the
// phase set has exactly one element.
type JitterRecorder struct {
	Signal string
	Period uint64
	Phases map[uint64]int
}

// NewJitterRecorder builds a recorder for signal with the given period.
func NewJitterRecorder(signal string, period uint64) *JitterRecorder {
	return &JitterRecorder{Signal: signal, Period: period, Phases: map[uint64]int{}}
}

// Observe is a Store.OnChange hook.
func (j *JitterRecorder) Observe(now uint64, signal string, old, new value.Value) {
	if signal != j.Signal {
		return
	}
	j.Phases[now%j.Period]++
}

// JitterFree reports whether all observed changes share one phase.
func (j *JitterRecorder) JitterFree() bool { return len(j.Phases) <= 1 }
