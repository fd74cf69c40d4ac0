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
// property.
package dtm

import (
	"errors"
	"fmt"

	"repro/internal/value"
)

// ErrSuspended is returned by Task.Execute when a target-resident debugger
// halted the run mid-body (an on-target breakpoint or step hit). The
// scheduler treats it as a suspension, not a failure: LastError stays
// clear, no deadline miss is counted, and — crucially — the task's Output
// (deadline latch) is NOT scheduled, so nothing publishes until the
// debugger resumes and completes the release.
var ErrSuspended = errors.New("dtm: execution suspended by debugger")

// event is one scheduled callback.
type event struct {
	at      uint64
	schedAt uint64 // instant the event was scheduled (enqueue time)
	seq     uint64 // FIFO tie-break for equal timestamps
	fn      func(now uint64)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

// Less orders events by (at, schedAt, seq). For a single kernel this is
// provably the same order as the historical (at, seq): seq is assigned in
// execution order, so it is monotone in the schedule instant and schedAt
// can never invert a seq comparison. The schedAt component matters for the
// parallel cluster path, where delivery events minted on another node's
// kernel carry their original enqueue instant and a sequence number from a
// separate (bus) number space — (at, schedAt, seq) then reproduces the
// serial shared-kernel interleaving.
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
	// second goroutine) calling back into Step/RunUntil/RunMerged would
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
// an error and the event is NOT enqueued: with per-node clocks advancing
// concurrently a past event would execute "before now" on the next pop,
// silently reordering history. Rearm is the only past-tolerant path.
func (k *Kernel) Schedule(at uint64, fn func(now uint64)) error {
	_, err := k.ScheduleTagged(at, fn)
	return err
}

// ScheduleTagged is Schedule returning the sequence number assigned to the
// event. Owners of snapshotable pending work (the scheduler's releases and
// latches, the network's in-flight frames, the board's deferred deadline
// latches) record it so a restore can re-arm the event with the same
// FIFO tie-break position — equal-timestamp ordering is part of the
// deterministic schedule.
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
// how foreign events — bus deliveries minted by another node's send —
// enter a kernel: their ordering identity was fixed where the send
// happened, and replaying it here reproduces the serial shared-kernel
// interleaving. Callers own the seq number space (the network uses a
// dedicated high range so it can never collide with kernel-assigned seqs).
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

// RunMerged executes the pending events of several kernels as one merged
// stream: events with at < limit (at <= limit when incl is set), in
// (at, schedAt, kernel index) order, each on its own kernel, without
// advancing any clock past its last executed event. onEvent, when set,
// sees each event's kernel index and (at, schedAt) immediately before it
// runs. It is the parallel cluster's worker loop: one goroutine runs the
// per-node kernels of a shard of nodes, onEvent publishes the shard's
// event frontier so cross-node sends can be arbitrated into virtual-time
// order, and the exclusive limit is the conservative lookahead barrier —
// no event at or beyond it may run before the barrier merges cross-node
// effects. The caller advances the clocks to the barrier explicitly with
// AdvanceTo. With one kernel this is a plain windowed run. Every kernel's
// head is re-examined before each event, so an event may schedule onto
// any kernel of the merge; a kernel listed twice panics as a re-entrant
// run.
func RunMerged(ks []*Kernel, limit uint64, incl bool, onEvent func(i int, at, schedAt uint64)) {
	entered := 0
	defer func() {
		for _, k := range ks[:entered] {
			k.leave()
		}
	}()
	for _, k := range ks {
		k.enter()
		entered++
	}
	for {
		m := -1
		var mat, msched uint64
		for i, k := range ks {
			if len(k.pq) == 0 {
				continue
			}
			head := &k.pq[0]
			if m < 0 || head.at < mat || (head.at == mat && head.schedAt < msched) {
				m, mat, msched = i, head.at, head.schedAt
			}
		}
		if m < 0 || mat > limit || (!incl && mat == limit) {
			return
		}
		if onEvent != nil {
			onEvent(m, mat, msched)
		}
		ks[m].step()
	}
}

// AdvanceTo moves the clock forward to t without running anything; it is
// the barrier half of RunMerged. Moving backwards is a no-op.
func (k *Kernel) AdvanceTo(t uint64) {
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
//	release instant r:      in = Latch(r)          (input latching)
//	execution:              out, cost = Execute(r, in)  (or Slice, preemptive)
//	deadline instant r+D:   Output(r+D, out)       (output latching)
//
// Under the Cooperative policy Execute runs at the release instant and
// reports its virtual execution cost; cost > Deadline is a deadline miss
// (counted, outputs still latched at the deadline — the overrun policy
// real COMDES kernels apply to soft tasks). Under FixedPriority the
// release becomes a resumable job scheduled by Priority; the miss is
// detected at the deadline latch when the job has not completed.
type Task struct {
	Name     string
	Period   uint64
	Offset   uint64
	Deadline uint64

	// Priority orders jobs under the FixedPriority policy: higher values
	// preempt lower ones; equal priorities break ties FIFO by release
	// order. Ignored by the Cooperative policy.
	Priority int

	Latch   func(now uint64) map[string]value.Value
	Execute func(now uint64, in map[string]value.Value) (map[string]value.Value, uint64, error)
	Output  func(now uint64, out map[string]value.Value)

	// Slice, when set, is the task's resumable body for the FixedPriority
	// policy: it executes up to budgetNs of the release that started at
	// the release instant and reports the virtual time consumed and
	// whether the body completed. The scheduler guarantees slices of the
	// same task are strictly sequential per release (release identifies
	// which job the slice belongs to). A task without Slice runs Execute
	// as one atomic slice — it is scheduled by priority but cannot be
	// preempted mid-body.
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
	if t.Execute == nil && t.Slice == nil {
		return fmt.Errorf("dtm: task %s: no Execute or Slice", t.Name)
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

	// FixedPriority state.
	ready   jobHeap
	running *job
	susp    []*job // jobs parked by ErrSuspended (debugger)
	lastJob *job
	jobSeq  uint64
	// nextRel is the next *scheduled* release per task: its instant plus
	// the kernel seq of the pending event (for snapshot re-arming).
	nextRel map[*Task]relSlot

	// unlatched are the live jobs whose deadline-latch event has not fired
	// yet — the explicit registry a snapshot serializes (a job is reachable
	// from here even when it already completed and only its latch instant
	// is outstanding).
	unlatched []*job

	// pending are the cooperative releases' output latches awaiting their
	// deadline instants, surfaced as explicit records instead of closures
	// so a snapshot can carry them.
	pending []pendingOutput
}

// relSlot is one pending release event.
type relSlot struct{ at, seq uint64 }

// pendingOutput is one cooperative release's deadline latch in flight,
// unique per (task, instant) — a task has at most one release per period.
type pendingOutput struct {
	t   *Task
	at  uint64
	seq uint64
	out map[string]value.Value
}

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

// Resume re-enables releases. Under FixedPriority any job parked by a
// debugger suspension re-enters the ready queue — priority order decides
// what runs next, so a higher-priority release that arrived while halted
// runs before the interrupted body continues.
func (s *Scheduler) Resume() {
	s.halted = false
	if s.Policy != FixedPriority {
		return
	}
	for _, j := range s.susp {
		j.suspended = false
		s.ready.push(j)
	}
	s.susp = s.susp[:0]
	s.dispatch(s.K.Now())
}

// Halted reports the halt state.
func (s *Scheduler) Halted() bool { return s.halted }

// Suspended reports whether a debugger suspension is parked (FixedPriority).
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
	var in map[string]value.Value
	if t.Latch != nil {
		in = t.Latch(now)
	}
	if s.Policy == FixedPriority {
		j := &job{t: t, release: now, seq: s.jobSeq, in: in}
		s.jobSeq++
		s.ready.push(j)
		s.unlatched = append(s.unlatched, j)
		j.latchSeq, _ = s.K.ScheduleTagged(now+t.Deadline, func(n uint64) { s.latch(j, n) })
		s.dispatch(now)
		return
	}
	out, cost, err := t.cooperativeRun(now, in)
	if err != nil {
		if errors.Is(err, ErrSuspended) {
			t.Suspensions++
			return
		}
		t.LastError = err
		return
	}
	t.ExecNs += cost
	if cost > t.WorstNs {
		t.WorstNs = cost
	}
	if cost > t.Deadline {
		t.DeadlineMisses++
	}
	if t.Output != nil {
		s.deferOutput(t, now+t.Deadline, out)
	}
}

// deferOutput queues a cooperative release's output latch as an explicit
// pending record (snapshotable) and arms its deadline event.
func (s *Scheduler) deferOutput(t *Task, at uint64, out map[string]value.Value) {
	seq, _ := s.K.ScheduleTagged(at, func(n uint64) { s.firePending(t, at, n) })
	s.pending = append(s.pending, pendingOutput{t: t, at: at, seq: seq, out: out})
}

// firePending runs the pending output latch of (t, at) and retires its
// record. Identity by task+instant: a task has at most one release — and
// therefore one deadline latch — per period.
func (s *Scheduler) firePending(t *Task, at, now uint64) {
	for i := range s.pending {
		if s.pending[i].t == t && s.pending[i].at == at {
			out := s.pending[i].out
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			t.Output(now, out)
			return
		}
	}
}

// cooperativeRun executes one whole release under the Cooperative policy:
// Execute when present, otherwise the Slice hook driven to completion with
// an unbounded budget.
func (t *Task) cooperativeRun(now uint64, in map[string]value.Value) (map[string]value.Value, uint64, error) {
	if t.Execute != nil {
		return t.Execute(now, in)
	}
	var total uint64
	for {
		used, done, err := t.Slice(now, now, ^uint64(0))
		total += used
		if err != nil || done {
			return nil, total, err
		}
	}
}

// job is one release turned into a resumable unit of work (FixedPriority).
type job struct {
	t       *Task
	release uint64
	seq     uint64 // FIFO tie-break within a priority (release order)
	in      map[string]value.Value
	out     map[string]value.Value

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
		_ = s.K.Schedule(now, func(n uint64) { s.dispatch(n) })
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
	s.lastJob = j
	budget := horizon - now
	if ctx >= budget {
		// The switch itself consumes the slice; the body runs next time.
		j.endAt, j.willDone = now+ctx, false
		j.endSeq, _ = s.K.ScheduleTagged(now+ctx, func(n uint64) { s.sliceEnd(j, n) })
		return
	}
	budget -= ctx
	used, done, err := s.runSlice(j, now, budget)
	if err != nil {
		if errors.Is(err, ErrSuspended) {
			j.t.Suspensions++
			j.usedNs += used
			j.suspended = true
			s.susp = append(s.susp, j)
			s.running = nil
			return
		}
		j.t.LastError = err
		j.failed = true
		s.running = nil
		s.dispatch(now)
		return
	}
	j.usedNs += used
	end := now + ctx + used
	j.endAt, j.willDone = end, done
	if done {
		j.endSeq, _ = s.K.ScheduleTagged(end, func(n uint64) { s.complete(j, n) })
	} else {
		j.endSeq, _ = s.K.ScheduleTagged(end, func(n uint64) { s.sliceEnd(j, n) })
	}
}

// runSlice executes up to budgetNs of the job's body. Tasks without a
// Slice hook run Execute atomically (one all-or-nothing slice).
func (s *Scheduler) runSlice(j *job, now, budgetNs uint64) (uint64, bool, error) {
	t := j.t
	if t.Slice != nil {
		return t.Slice(j.release, now, budgetNs)
	}
	out, cost, err := t.Execute(now, j.in)
	if err != nil {
		return 0, false, err
	}
	j.out = out
	return cost, true, nil
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

// complete finalises a finished job: execution and response accounting,
// plus the late publish when the deadline latch has already passed (a
// missed or debugger-suspended release publishes at completion).
func (s *Scheduler) complete(j *job, now uint64) {
	s.running = nil
	j.done = true
	t := j.t
	t.ExecNs += j.usedNs
	if j.usedNs > t.WorstNs {
		t.WorstNs = j.usedNs
	}
	resp := now - j.release
	t.ResponseNs += resp
	if resp > t.WorstResponseNs {
		t.WorstResponseNs = resp
	}
	if j.latched && t.Output != nil {
		t.Output(now, j.out)
	}
	s.dispatch(now)
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
		return
	}
	if j.done {
		if j.t.Output != nil {
			j.t.Output(now, j.out)
		}
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
