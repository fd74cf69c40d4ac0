// Package target simulates the embedded board the generated COMDES code
// runs on — the "target platform" of the paper's Fig. 1/Fig. 2, the piece
// both command interfaces attach to.
//
// # Board
//
// A Board owns a virtual nanosecond clock (a dtm.Kernel), the program's
// RAM image, and a per-actor periodic task schedule following Distributed
// Timed Multitasking:
//
//   - at every task release (offset + k*period) the board calls the
//     PreLatch hook (the plant's chance to write sensor inputs), latches
//     the __io input symbols into their stable task-instance copies, and
//     executes the unit body on the VM (internal/codegen);
//   - execution cost is accounted in CPU cycles (the VM's cost model) and
//     converted to virtual time through Config.CPUHz, so a run that
//     overruns its deadline is counted as a miss;
//   - at the deadline instant (release + deadline) the working outputs are
//     latched into the published __pub symbols, instrumented signal events
//     are emitted, and Config.Bindings route published values to consumer
//     actors (directly on the same board, or through the cluster network).
//
// # Scheduling policies
//
// Config.Sched selects how releases become CPU time. Both policies run a
// body through one path, the task's Slice hook on a pooled
// codegen.Machine per unit, and keep one record of a started release, the
// scheduler's job. Under dtm.Cooperative (the default) every
// release is one slice with the dtm.Unbounded budget, run to completion
// at its release instant at zero modeled preemption cost;
// TaskSpec.Priority is ignored and a miss means "the body's own cost
// exceeds the deadline". Under dtm.FixedPriority each release is a
// resumable job executed in budgeted VM slices bounded by the next
// release instant of any task, and a higher-priority release preempts the
// running body at the instruction boundary where its slice ends. Each context switch costs
// DefaultCtxSwitchCycles of CPU; preemptions and deadline misses are
// announced with EvPreempt / EvDeadlineMiss frames and mirrored into the
// kernel-maintained "<actor>.__preempts" / "<actor>.__misses" RAM symbols,
// where the passive JTAG interface and on-target breakpoint conditions
// (engine.MissBreakpoint, repro.Debugger.BreakOnDeadlineMiss) can see them.
//
// The policy/halt semantics matrix:
//
//	                         Cooperative                 FixedPriority
//	release execution        whole body at the release   priority-ordered slices;
//	                         instant, run-to-completion  preempted at instruction
//	                                                     boundaries
//	deadline miss            body cost > deadline,       job unfinished at the
//	                         counted at completion       latch instant, counted
//	                                                     (and EvDeadlineMiss sent)
//	                                                     at the latch
//	missed release publish   outputs still latch at the  late publish at job
//	                         deadline instant            completion
//	on-target break hit      halt-at-instruction; the    halt-at-instruction; the
//	                         job is parked, no latch     job leaves the ready
//	                         armed (ErrSuspended)        queue, latch suppressed
//	resume after suspension  the job runs on at the      job re-enters the ready
//	                         resume instant; on          queue; priority order
//	                         completion its whole cost   decides what runs; on
//	                         is charged and its latch    completion its whole cost
//	                         armed (deadline ahead) or   is charged and a passed
//	                         published at once           latch publishes at once
//	re-hit after resume      a suspension, stamped at    a suspension, stamped at
//	                         the resume instant          the triggering instruction
//	host Halt (InPause)      releases skipped, rhythm    releases skipped; a job
//	                         kept; pre-latched outputs   caught mid-body freezes
//	                         still publish               and continues on Resume
//	host-side breakpoints    halt-after-frame: react     identical — plus the
//	                         once the event frame has    EvPreempt/EvDeadlineMiss
//	                         crossed the line            patterns become matchable
//	                                                     events
//	equal-priority ties      n/a (release order)         FIFO by release order; a
//	                                                     preempted job resumes
//	                                                     before later equal-
//	                                                     priority releases
//
// Cycle accounting is split: Cycles is everything the CPU executed,
// InstrumentationCycles is the part attributable to the active command
// interface (OpEmit instructions plus deadline signal emits). A clean or
// passively-watched binary reports zero instrumentation cycles — the
// measurable core of the paper's active-vs-passive argument.
//
// # Dispatch
//
// Every release body runs through the VM's one dispatch loop,
// codegen.Machine.RunBudget (Step is that loop run for one instruction).
// codegen.Compile marks the first instruction of each superinstruction
// shape in the IR (Instr.Fuse), and the loop runs a marked site as one
// superinstruction only when nothing could observe its interior: no break
// hook is armed, the remaining budget exceeds the cost of every
// instruction of the shape but the last, and the step limit cannot trip
// inside it. Otherwise the marked instruction runs as its plain opcode.
// That is the one de-fusion rule. Either way cycles, steps, preemption
// boundaries, breakpoint halts, Snapshot/Restore state and runtime error
// text are those of plain instruction-by-instruction execution.
//
// # Command interfaces
//
// The active interface is a full-duplex UART (internal/serial) at
// Config.Baud: instrumentation events are framed (internal/protocol) and
// sent from the target port; the host reads them from HostPort(). Event
// delivery is therefore paced by the line rate — a dense instrumentation
// set can saturate the link, which experiment E7b measures. The same link
// carries host -> target Instructions (remote pause/resume, variable
// read/write), serviced by the firmware at task releases and at RunFor
// boundaries and acknowledged with events.
//
// The passive interface is the TAP field: an IEEE 1149.1 test access port
// (internal/jtag) wired straight to the board RAM. Probe reads cost zero
// target cycles, so a Watcher can animate the debugger model with no code
// modification at all.
//
// # Breakpoint agent
//
// The firmware carries a target-resident breakpoint/step agent. InSetBreak
// instructions deliver a condition as expression text ("m.__state == 1",
// "heater.power__pub > 90"); the agent compiles it against the program's
// symbol table (internal/expr) and evaluates it — at codegen.BreakCheckCycles
// of CPU per predicate, charged as instrumentation — at three check sites:
// every VM symbol store, every VM model-event emit, and every deadline
// publish. InClearBreak disarms; InStep arms run-to-next-model-event.
//
// Halt semantics differ fundamentally from host-side breakpoints:
//
//   - On-target (halt-at-instruction): a hit stops the VM at the very
//     instruction that changed the symbol or raised the event, mid-release.
//     The release is suspended (dtm.ErrSuspended): under either policy it
//     is a job parked in the scheduler, its machine kept by its unit, and
//     its deadline latch does NOT publish; an EvBreak frame stamped with
//     the instruction's virtual time reports the source id and triggering
//     symbol/value (EvStepped for a completed step). Board.Resume is the
//     scheduler's Resume: the job continues — re-suspending, and counting
//     another suspension, if a still-true condition re-trips — and on
//     completion charges its whole cost and makes up the skipped latch at
//     its original deadline instant when that is still ahead, immediately
//     (a late publish) otherwise.
//   - Host-side (halt-after-frame): the session can only react once the
//     event frame has crossed the UART (or a JTAG poll has sampled RAM),
//     at least one frame-time after the fact. By then the release body has
//     completed and the deadline latch fires on schedule; the halt lands
//     between task instances.
//
// While a board is halted, pre-latched deadlines still fire (outputs keep
// their deadline instants) but do not re-trigger the agent.
//
// The serial TX FIFO enqueues frame-atomically: a frame that does not fit
// is dropped whole and counted, and the firmware reports the cumulative
// drop counter host-side with an EvOverrun event as soon as the line has
// room — E7b's delivered/emitted gap, observable on the wire.
//
// # Cluster
//
// BuildCluster places a multi-node system (comdes Placement) onto one
// Board per node, all sharing a single virtual clock. Cross-node signal
// bindings travel over a dtm.Network; intra-node bindings are delivered
// directly at the producer's deadline instant. Every route is resolved
// when the cluster is built — a published port to its consumers' signals
// and inboxes and its node's bus sender, a consumer's off-node inputs and
// an inbox's signals to input symbol indices — and each unit's deadline
// latch is resolved when its board is built, so a running cluster looks
// no name up per publish, release or delivery. RunUntil advances every
// board in global event order on one shared dtm.Kernel, drained on the
// calling goroutine.
//
// # Execution
//
// A cluster has one executor: the shared serial kernel. A conservative
// parallel executor (one kernel per node, advanced between delivery-bound
// barriers) was tried and removed because it never won. On a 2-core Xeon,
// RingCluster(16) under repro.DebugCluster ran at 8.2 virtual ns per wall
// ns parallel against 13.0 serial, and a 32-node ring took 80.9 µs per
// virtual ms parallel against 46.7 serial: the cross-node send
// arbitration and the barriers cost more than the second core gave back.
// Cores are spent across sessions instead — the farm runs up to its
// Workers sessions' advances at once and a campaign runs its variants on
// every core — which keeps every session's CPU use inside the bound that
// caps it. Checkpoints written by the parallel executor (ClusterState boards
// carrying their own kernel) are refused by Cluster.Restore and must be
// re-recorded.
//
// # Time-triggered bus
//
// Without ClusterConfig.Bus the network is a constant-latency pipe: every
// frame arrives exactly LatencyNs after the producer's deadline latch (the
// seed behaviour, byte-identical to the original goldens). With a
// dtm.BusSchedule installed the medium is a TTP/FlexRay-style TDMA bus and
// LatencyNs becomes the propagation delay after slot departure. The
// slot/contention/loss semantics matrix:
//
//	aspect               constant latency            TDMA bus (ClusterConfig.Bus)
//	delivery instant     publish + LatencyNs         departure slot start (+ release
//	                                                 jitter) + LatencyNs
//	who may send when    anyone, any time            the slot's Owner only; the cycle
//	                                                 (slots + gaps) repeats from t=0
//	publish outside      n/a                         frame queues in the sender's TX
//	an owned slot                                    queue until its next owned slot
//	                                                 (contention; per-node Stats track
//	                                                 queue depth and worst queueing
//	                                                 delay)
//	slot capacity        n/a                         one frame per owned slot; a burst
//	                                                 spreads over consecutive owned
//	                                                 slots, FIFO
//	release jitter       none                        bounded deterministic draw in
//	                                                 [0, JitterNs] added to each
//	                                                 departure (seeded splitmix64)
//	frame loss           never                       per-slot seeded draw at
//	                                                 LossPerMille; the loss happens at
//	                                                 the departure slot, observably
//	sender w/o slot      n/a                         BuildCluster refuses the system
//	                                                 (a hand-built dtm.Network drops
//	                                                 such frames at enqueue)
//	observability        Net.Sent                    EvBusSlot per departure and
//	                                                 EvFrameDropped per loss from the
//	                                                 *sending* board's UART; the
//	                                                 cumulative drop count mirrored in
//	                                                 the node's __busdrops RAM symbol
//	                                                 (JTAG-watchable, usable in
//	                                                 Breakpoint.TargetCond — "break on
//	                                                 bus loss" halts the sender at the
//	                                                 dropping slot); per-node
//	                                                 Cluster.BusStats
//	checkpoints          frames in flight with       additionally: TX queues, per-node
//	                     delivery instants + seqs    slot cursors, the jitter/loss RNG
//	                                                 counter and TX stats — a restore
//	                                                 lands mid-TDMA-cycle with the
//	                                                 identical queue, phase and future
//	                                                 jitter/loss pattern
//	timing diagram       —                           the trace's "bus" track is the
//	                                                 slot-grid lane (value = sending
//	                                                 node, 'x' marks = lost frames)
//
// Because departures are decided (jitter and loss draws included) at
// enqueue time, the TDMA bus is exactly as deterministic as the rest of
// the kernel: the same model and schedule replay the same timeline, and
// dtm.ResponseTimeAnalysis-style reasoning extends to the network — the
// worst end-to-end latency of a cross-node signal is bounded by one TDMA
// cycle plus queue backlog, observable in BusStats.WorstQueueNs.
//
// # Checkpoints
//
// Board.Snapshot returns the complete execution state as one copyable,
// JSON-serializable value (BoardState); Restore rewinds a board built
// from the same program — the same object, a fresh one, or one in another
// process — to that exact instant. Snapshot at RunFor/RunUntil boundaries
// (kernel quiescent points). What is in a checkpoint, layer by layer:
//
//	layer      captured state                      restore semantics
//	-------    --------------------------------    ----------------------------------
//	kernel     clock, event seq counter            clock may rewind; the event queue
//	(dtm)                                          is rebuilt by the owners below,
//	                                               each event re-armed at its original
//	                                               instant AND sequence number, so
//	                                               equal-timestamp tie-breaks replay
//	                                               exactly
//	scheduler  per-task accounting (releases,      pending releases/latches/slice
//	(dtm)      misses, exec/response times),       ends re-armed; the ready heap,
//	           release rhythm (next instant +      suspended jobs and the job on the
//	           seq), the jobs: FixedPriority's,    CPU are rebuilt; pending outputs
//	           the running slice (end instant,     re-armed (a checkpoint's board
//	           will-complete), a suspended         "deferred" latch records, written
//	           cooperative job, and a finished     before the scheduler kept them,
//	           cooperative job's latch, written    fold in by deadline)
//	           as a pending output
//	VM         per-unit mid-release machines,      fresh Machine per parked release
//	(codegen)  preempted or suspended ("units"):   (never aliases the source pool);
//	           PC, operand stack, halt flag,       resumes at the exact instruction
//	           accumulated cycles/steps/emits      boundary
//	           (MachineState)
//	board      RAM image, cycle/instrumentation    byte-copied; symbol values,
//	           counters, event seq, firmware       scheduling counters and latched
//	           error, drop report cursor           I/O all come back with it
//	agent      armed breakpoints (id, condition    conditions recompiled against the
//	           text, hot/sticky flag, hit/err      program's symbol table in arming
//	           counts), step arm, check round      order; hot flags preserved so trip
//	                                               timing and sticky re-suspend
//	                                               survive the rewind
//	susp       read only: a cooperative            folded into a suspended job (its
//	           suspension as checkpoints wrote     cost the floor of the accounted
//	           it before the scheduler kept it     prefix's cycles) plus a "units"
//	           (unit, release instant, machine,    machine; Resume then runs on as
//	           accounted prefix)                   the live board would have
//	serial     both directions: bytes in flight    bytes land at their original
//	           with arrival instants, undrained    instants; a frame straddling the
//	           rx, line-busy horizon, stats        checkpoint is not torn
//	protocol   the firmware decoder mid-frame      the remaining bytes complete the
//	           (body prefix, escape state,         frame; host-side decoder state
//	           error count)                        travels in engine.SerialSourceState
//	cluster    shared kernel once, per-node        boards, in-flight frames and the
//	           BoardStates, network frames         global clock rewind together; the
//	           mid-hop, per-node inbox stores      merged cross-node event order
//	                                               replays exactly
//
// Host-side session state (trace, model-level breakpoints, GDM animation)
// is deliberately not the board's concern: engine.SessionState captures
// it, and internal/checkpoint composes both halves into one serialized
// Checkpoint with periodic recording, input/command logs and
// RewindTo/ReplayUntil on top.
//
// # Session lifecycle
//
// One debug session owns one board (repro.Debug) or one cluster
// (repro.DebugCluster) plus its host half; both return a *repro.Debugger.
// Every front end builds it from one recipe, a dsl.Scenario (a built-in
// model is the scenario dsl.FromSystem makes of it), whose Debug method is
// the one place above repro that picks board or cluster, by the number of
// placed nodes. Sessions exist in-process (the gmdf CLI, a campaign,
// tests) or multiplexed behind a farm server (internal/farm, cmd/gmdfd),
// where many isolated sessions
// share one immutable compiled program — codegen.Program is static IR;
// all mutable state (RAM, kernel, machines, agent, trace) lives in the
// board/cluster and the session.
// The lifecycle matrix, by operation × target shape × checkpoint state:
//
//	operation   single board                cluster
//	create      compile (or reuse the       always compiled per model; one
//	(fresh)     cached program), boot the   board per placed node on a shared
//	            board, bind the standard    virtual clock, the standard TDMA
//	            environment; t=0, empty     bus underneath; RecordMs attaches
//	            trace                       the same checkpoint.Recorder,
//	                                        logging every node
//	create      checkpoint.Apply onto the   checkpoint.Apply; node set
//	(from       freshly booted board: RAM,  must match the model's placement;
//	digest)     kernel, agent, serial and   restore lands mid-TDMA-cycle with
//	            the host trace land at      identical queue phase and future
//	            cp.Time; the continuation   jitter/loss draws
//	            is byte-identical to the
//	            uninterrupted run
//	attach      binds a connection as the   same; events from every node of
//	            session's event stream      the cluster interleave in virtual-
//	            sink; records already in    time order on the one stream
//	            the trace are reported,
//	            then new records stream
//	            in run-boundary batches
//	detach      destroys the session.       same; the checkpoint is the
//	            With checkpoint=true the    cluster-wide snapshot (all boards,
//	            final state is stored       frames mid-hop, bus cursors)
//	            content-addressed (hex
//	            SHA-256 of the serialized
//	            checkpoint) and the digest
//	            returned; without, the
//	            state is dropped
//	migrate     detach(checkpoint) in       identical; a checkpoint of the
//	            process A, create(digest)   removed parallel executor is
//	            in process B sharing the    refused with an error (record
//	            store directory; the        it again)
//	            digest verifies on fetch
//	            (re-hash), so a corrupt
//	            store entry fails loudly
//	            instead of replaying
//	            wrongly
//
// Checkpoint-state column, orthogonally: a session with RecordMs enabled
// also keeps periodic in-process checkpoints and can RewindTo/ReplayUntil
// within its recorded window — one checkpoint.Recorder, keyed by node,
// logs the environment writes and the host actions of a board (one node)
// or of every node of a cluster and re-applies them where they were made:
// a session command (break, clearbreak, step, pause, continue) runs again,
// an input write is made again, and a raw wire instruction is sent again
// on its node's command channel (bus arbitration, loss and jitter replay
// from the restored network RNG, not fresh draws). A host action after a
// rewind below the frontier, or a restore onto the recording session,
// forks the recorded timeline there; the plant's logged writes are re-fed
// up to the farthest instant it ran to. Detach checkpoints are
// one-shot full snapshots and work on any session at any run boundary. Virtual time
// makes all of this deterministic: create-from-digest in a fresh process
// and the original session produce byte-identical stable traces, which
// the farm tests and the CI cross-process jobs diff.
//
// # Campaign forking
//
// A campaign (internal/campaign, `gmdf -campaign`) simulates a warm
// prefix once, checkpoints it, and forks N parameter variants from that
// one in-memory checkpoint. A fork is a restore: Restore copies state in
// and never writes its input, so every worker restores the one shared
// base, concurrently, and nothing is copied up front. The variant must
// still start a fresh observation window under new parameters while
// keeping the warm dynamic state. Edits every variant shares are made
// once, on the base, right after it is captured; per-variant edits go on
// the live target or on shallow copies of the Checkpoint and
// ClusterState structs, whose maps and slices stay the base's. What each
// layer keeps, resets, or overrides:
//
//	layer               kept from the warm prefix       reset / overridden
//	kernel clock        absolute virtual time           — (windows are measured
//	                    continues                       relative to the fork instant)
//	scheduler jobs      ready heap, preempted jobs,     once, on the base: per-task
//	                    release rhythm (NextRelease,    accounting zeroed (releases,
//	                    RelSeq), suspended releases     misses, exec/response stats)
//	                                                    so observations cover only
//	                                                    the variant window
//	task priorities     —                               per variant, on the live
//	                                                    tasks: ShufflePriorities
//	                                                    permutes the priority
//	                                                    multiset (deterministic
//	                                                    Fisher-Yates from the variant
//	                                                    stream); the ready heap
//	                                                    rebuilds under the new order
//	                                                    during restore
//	RAM / VM machines   byte-identical — mid-release    —
//	                    machines resume at their
//	                    instruction boundary
//	bus schedule        slot/gap geometry; the base's   per variant, on a shallow
//	                    queued and in-flight frames     copy: Seed, LossPerMille,
//	                                                    JitterNs overridden,
//	                                                    RotateSlots rotates slot
//	                                                    ownership, RNG pinned to the
//	                                                    variant seed; the live bus
//	                                                    drops its frames so the
//	                                                    schedule can be installed.
//	                                                    Once, on the base: TX stats
//	                                                    zeroed (queue depth kept)
//	session trace       discarded — each variant        once, on the base: trace and
//	                    records only its own window     handled count dropped; per
//	                                                    variant the worker's one
//	                                                    trace, Reset (its storage
//	                                                    reused across forks)
//	breakpoints /       armed conditions survive the    —
//	agent               fork (the campaign runner
//	                    forks from unpaused prefixes)
//
// The aggregate over all variants is a pure function of the campaign
// spec: variants are planned from one splitmix64 stream, executed by a
// fixed set of workers that each keep their own simulator instance, and
// observations are indexed by variant — so one worker or
// N produce byte-identical JSON, which CI diffs.
package target
