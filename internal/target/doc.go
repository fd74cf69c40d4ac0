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
// Config.Sched selects how releases become CPU time. Under dtm.Cooperative
// (the default) every release runs to completion at its release instant at
// zero modeled preemption cost; TaskSpec.Priority is ignored and a miss
// means "the body's own cost exceeds the deadline". Under
// dtm.FixedPriority each release is a resumable job: the board keeps one
// persistent codegen.Machine per unit (pooled across releases), executes
// bodies in budgeted VM slices bounded by the next release instant of any
// task, and a higher-priority release preempts the running body at the
// instruction boundary where its slice ends. Context switches cost
// Config.CtxSwitchCycles of CPU; preemptions and deadline misses are
// announced with EvPreempt / EvDeadlineMiss frames and mirrored into the
// kernel-maintained "<actor>.__preempts" / "<actor>.__misses" RAM symbols,
// where the passive JTAG interface and on-target breakpoint conditions
// (engine.MissBreakpoint, Wizard.BreakOnDeadlineMiss) can see them.
//
// The policy/halt semantics matrix:
//
//	                         Cooperative                 FixedPriority
//	release execution        whole body at the release   priority-ordered slices;
//	                         instant, run-to-completion  preempted at instruction
//	                                                     boundaries
//	deadline miss            body cost > deadline,       job unfinished at the
//	                         counted at the release      latch instant, counted
//	                                                     (and EvDeadlineMiss sent)
//	                                                     at the latch
//	missed release publish   outputs still latch at the  late publish at job
//	                         deadline instant            completion
//	on-target break hit      halt-at-instruction; VM     halt-at-instruction; the
//	                         parked, deadline latch      job leaves the ready
//	                         suppressed (ErrSuspended)   queue, latch suppressed
//	resume after suspension  interrupted body finishes   job re-enters the ready
//	                         first, then the skipped     queue; priority order
//	                         latch is made up            decides what runs; the
//	                                                     made-up latch publishes
//	                                                     at completion
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
// # Dispatch backends
//
// Config.Backend selects how the VM dispatches generated code:
// BackendAuto/BackendThreaded (the default) attach the direct-threaded
// compiled form codegen.Compile builds eagerly for every unit — a chain
// of Go closures with peephole-fused superinstructions — while
// BackendInterp forces the per-instruction Step switch (the gmdf
// "-backend interp" escape hatch). Board.Backend() reports the path
// release bodies actually run on: "threaded" only when the compiled form
// is both selected and present for every unit, so a program that could
// not be threaded never silently claims the fast path. The semantics
// matrix — every cell is bit-identical by construction and gated by the
// differential, golden and preempt-table tests:
//
//	aspect                interpreter (Step switch)   threaded (closure chain)
//	cycle accounting      Op.Cycles per instruction,  identical — fused super-
//	                      BreakCheckCycles per        instructions charge the sum
//	                      armed predicate             of their parts, error exits
//	                                                  charge exactly the executed
//	                                                  prefix
//	RunBudget preemption  stops after the first       identical boundary; a fused
//	                      instruction reaching the    site DE-FUSES to single-step
//	                      budget (the one in flight   dispatch whenever the
//	                      completes)                  remaining budget could land
//	                                                  strictly inside it (remaining
//	                                                  <= cost of all-but-last), so
//	                                                  slices stop at the same
//	                                                  instruction
//	breakpoint hook       CheckStore/CheckEmit after  identical sites; any armed
//	                      every store/emit; a hit     hook de-fuses every super-
//	                      halts AT the triggering     instruction, so the halt
//	                      instruction                 lands at the same instruction
//	                                                  with the same accounting
//	checkpoint /          Snapshot/Restore at any     identical — both backends
//	single-step           instruction boundary        share all machine state
//	                                                  (PC, stack, results), so
//	                                                  execution may switch between
//	                                                  them at any boundary; a
//	                                                  restored machine re-attaches
//	                                                  the program's threaded form
//	runtime errors        error text + PC at the      identical text, PC and
//	                      failing instruction         accounting (fused error
//	                                                  exits de-fuse retroactively)
//	unthreadable code     canonical diagnostics       Thread() returns nil; the
//	(bad jump, unknown    (unknown opcode ...)        machine stays on the
//	opcode)                                           interpreter, Backend()
//	                                                  reports "interp"
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
//     The release is suspended (dtm.ErrSuspended), so its deadline latch
//     does NOT publish; an EvBreak frame stamped with the instruction's
//     virtual time reports the source id and triggering symbol/value
//     (EvStepped for a completed step). Resume finishes the interrupted
//     body — re-suspending if a still-true condition re-trips — and makes
//     up the skipped latch at its original deadline instant when that is
//     still ahead, immediately (a late publish) otherwise.
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
// directly at the producer's deadline instant. RunUntil advances every
// board in global event order — on one shared kernel (serial) or on
// per-node kernels between conservative barriers (parallel, below); the
// two produce byte-identical traces.
//
// # Parallel execution
//
// ClusterConfig.Exec selects how RunUntil advances the nodes. ExecAuto
// (the default) is serial for every cluster, with or without a Bus
// schedule; ExecParallel is an explicit opt-in on any configuration (a
// TDMA bus's slot grid provides the lookahead, a constant-latency
// network's is LatencyNs). ExecAuto used to pick parallel on a TDMA bus.
// It stopped because the parallel executor loses on the hosts measured:
//
//   - On a 2-core Xeon, 6 virtual s of RingCluster(16) on the standard
//     bus made 96,000 arbitrated sends, 12,041 of which blocked. The
//     shards spent 307 ms waiting for each other's frontiers and the
//     caller 257 ms at the barrier, out of 899 ms wall time.
//   - Deferring the bus draws of frames departing past the window horizon
//     to the barrier removed the blocking (47,997 of 48,000 sends
//     deferred) yet stayed slower than serial (7.3 vs 9.2 virtual ns per
//     wall ns): the engine consumes the cluster's events on the caller
//     between slices, and the per-event frontier publish and merge cost
//     more than the second core gives back.
//   - With the serial path made O(1) per queued frame (head-only TX
//     queues, dtm package comment) and per binding (indexed routes),
//     RingCluster(16) under repro.DebugCluster runs at 13.0 virtual ns
//     per wall ns on the serial executor against 8.2 on the parallel one,
//     which shares the same bus and routing code (2-core Xeon, medians of
//     8 alternating runs of 3 sessions × 5 virtual s).
//   - A parallel session starts shards−1 goroutines of its own, outside
//     any worker pool a caller bounds its CPU use with (the farm's
//     simulation pool, the campaign runner, which forces ExecSerial).
//
// A checkpoint records the mode it was taken in, and a cluster restores
// only a snapshot of its own mode; ExecMode.ResumeMode lets ExecAuto
// follow the checkpoint, so checkpoints written while ExecAuto was
// parallel still resume by default.
//
// Parallel mode is conservative parallel discrete-event simulation: each
// node owns a dtm.Kernel, and the sorted nodes are split into one
// contiguous shard per core (min(GOMAXPROCS, nodes) shards, fixed when the
// cluster is built). One goroutine runs a shard's kernels as a single
// event stream merged in (at, schedAt, node index) order
// (dtm.RunMerged); the calling goroutine runs shard 0 and a worker each of
// the others, so a one-shard cluster starts no goroutine. RunUntil
// advances the shards concurrently through windows [start, H) where H =
// Network.DeliveryBound(start), the earliest instant any not-yet-submitted
// frame could arrive anywhere. Cross-node sends are arbitrated into serial
// virtual-time order (each shard publishes its event frontier; a send
// waits until no other live shard could still execute an earlier event),
// minted deliveries are buffered, and the barrier waits for every shard to
// finish its window, flushes the deliveries into the destination kernels
// and advances every clock to H.
//
// The semantics matrix:
//
//	aspect                serial (shared kernel)      parallel (per-node kernels)
//	selected by           ExecAuto (default),         ExecParallel only (opt-in)
//	                      ExecSerial
//	event order           one heap, (at, schedAt,     per-node heaps, merged per shard
//	                      seq) order                  in (at, schedAt, node index)
//	                                                  order; cross-node effects merged
//	                                                  at barriers with their original
//	                                                  (at, schedAt, seq) identity, so
//	                                                  traces, goldens and stats are
//	                                                  byte-identical for every shard
//	                                                  count
//	goroutines            the caller only             one per shard: the caller runs
//	                                                  shard 0, Cluster.Hold starts
//	                                                  shards−1 workers (none with one
//	                                                  shard or one core)
//	shared-state draws    heap order                  send arbitration: RNG, slot
//	(jitter/loss RNG,                                 cursors and delivery numbering
//	slot cursors)                                     are claimed in exactly the serial
//	                                                  order
//	bus events in the     each TX queue's head        each TX queue's head departure
//	heap                  departure plus the          on the sender's kernel; every
//	                      deliveries of departed      delivery minted at the barrier
//	                      frames: O(nodes), however   after its send (held back to
//	                      deep the backlog            its departure, it could land in
//	                                                  a window whose horizon did not
//	                                                  cover it)
//	equal-instant ties    (at, schedAt, seq) — seq    the send frontier carries
//	                      assigned at schedule time   (at, schedAt, node index); seq
//	                                                  is per-kernel and incomparable
//	                                                  across nodes, so a full-prefix
//	                                                  tie falls back to sorted node
//	                                                  order (also inside a shard's
//	                                                  merge) — identical to
//	                                                  serial for release chains
//	                                                  grounding out in Start() (which
//	                                                  schedules nodes in sorted order);
//	                                                  an asymmetric schedule chain
//	                                                  colliding at equal (at, schedAt)
//	                                                  is the one construction that
//	                                                  could diverge
//	halt / step / host    immediate — everything      workers live for one outer host
//	tooling               runs on the caller          call (Cluster.Hold: a RunNs, a
//	                                                  rewind or a replay; a bare
//	                                                  RunUntil holds its own) and are
//	                                                  parked at every barrier between
//	                                                  its slices, so every RunUntil
//	                                                  boundary is fully quiescent;
//	                                                  debugger halt/step/rewind slices
//	                                                  (repro.DebugCluster) need no
//	                                                  extra synchronisation, and no
//	                                                  worker outlives the call
//	re-entrant RunUntil   panics (would corrupt       panics (would corrupt the worker
//	                      the event heap)             pool); same guard, both modes
//	checkpoints           shared kernel in            facade clock in ClusterState.
//	                      ClusterState.Kernel         Kernel, one kernel per board in
//	                                                  BoardState.Kernel; snapshots at
//	                                                  RunUntil boundaries (quiescent);
//	                                                  cross-mode restore is refused
//	                                                  (ExecAuto follows the snapshot)
//	Board.RunFor          standalone boards only      unchanged — cluster nodes are
//	                                                  driven through Cluster.RunUntil
//	                                                  in both modes
//	zero lookahead        n/a                         panics ("window without
//	                                                  lookahead"); unreachable from
//	                                                  BuildCluster, which defaults
//	                                                  LatencyNs
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
//	           seq), FixedPriority job set (in/    CPU are rebuilt; cooperative
//	           out latch maps deep-copied), the    pending outputs re-armed with
//	           running slice (end instant,         their deep-copied value maps
//	           will-complete), cooperative
//	           pending output latches
//	VM         per-unit mid-release machines:      fresh Machine per parked release
//	(codegen)  PC, operand stack, halt flag,       (never aliases the source pool);
//	           accumulated cycles/steps/emits      resumes at the exact instruction
//	           (MachineState)                      boundary
//	board      RAM image, cycle/instrumentation    byte-copied; symbol values,
//	           counters, event seq, firmware       scheduling counters and latched
//	           error, drop report cursor           I/O all come back with it
//	agent      armed breakpoints (id, condition    conditions recompiled against the
//	           text, hot/sticky flag, hit/err      program's symbol table in arming
//	           counts), step arm, check round      order; hot flags preserved so trip
//	                                               timing and sticky re-suspend
//	                                               survive the rewind
//	susp       the release interrupted by the      machine rebuilt; Resume finishes
//	           agent (unit, release instant,       the body and makes up the skipped
//	           machine, accounted prefix) plus     latch exactly as the live board
//	           deferred made-up latches            would have
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
// (repro.DebugCluster) plus its host half. Sessions exist in-process (the
// gmdf CLI, tests) or multiplexed behind a farm server (internal/farm,
// cmd/gmdfd), where many isolated sessions share one immutable compiled
// program — codegen.Program is static IR; all mutable state (RAM, kernel,
// machines, agent, trace) lives in the board/cluster and the session.
// The lifecycle matrix, by operation × target shape × checkpoint state:
//
//	operation   single board                cluster
//	create      compile (or reuse the       always compiled per model; one
//	(fresh)     cached program), boot the   board per placed node on a shared
//	            board, bind the standard    virtual clock, the standard TDMA
//	            environment; t=0, empty     bus underneath; RecordMs attaches
//	            trace                       the whole-cluster recorder
//	                                        (checkpoint.ClusterRecorder)
//	create      checkpoint.Apply onto the   ClusterCheckpoint.Apply; node set
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
//	migrate     detach(checkpoint) in       identical — cluster checkpoints
//	            process A, create(digest)   refuse only an explicit exec
//	            in process B sharing the    mode other than their own
//	            store directory; the        (serial vs parallel kernel
//	            digest verifies on fetch    shapes differ); exec "" or
//	            (re-hash), so a corrupt     "auto" takes the checkpoint's
//	            store entry fails loudly
//	            instead of replaying
//	            wrongly
//
// Checkpoint-state column, orthogonally: a session with RecordMs enabled
// also keeps periodic in-process checkpoints and can RewindTo/ReplayUntil
// within its recorded window — checkpoint.Recorder logs one board's
// environment inputs and wire instructions, checkpoint.ClusterRecorder
// logs them per node and re-feeds them on each node's original command
// channel (bus arbitration, loss and jitter replay from the restored
// network RNG, not fresh draws). Detach checkpoints are one-shot full
// snapshots and work on any session at any run boundary. Virtual time
// makes all of this deterministic: create-from-digest in a fresh process
// and the original session produce byte-identical stable traces, which
// the farm tests and the CI cross-process jobs diff.
//
// # Campaign forking
//
// A campaign (internal/campaign, `gmdf -campaign`) simulates a warm
// prefix once, checkpoints it, and forks N parameter variants from that
// one in-memory checkpoint — Checkpoint.Clone() is a deep structural
// copy with no serialization, so a fork costs microseconds where the
// Marshal/Decode round trip cost milliseconds. A fork is NOT a plain
// restore: the variant must start a fresh observation window under new
// parameters while keeping the warm dynamic state. What each layer
// keeps, resets, or overrides at fork time:
//
//	layer               kept from the warm prefix       reset / overridden per variant
//	kernel clock        absolute virtual time           — (windows are measured
//	                    continues                       relative to the fork instant)
//	scheduler jobs      ready heap, preempted jobs,     per-task accounting zeroed
//	                    release rhythm (NextRelease,    (releases, misses, exec/
//	                    RelSeq), suspended releases     response stats) so observations
//	                                                    cover only the variant window
//	task priorities     —                               ShufflePriorities permutes the
//	                                                    priority multiset over the
//	                                                    tasks (deterministic
//	                                                    Fisher-Yates from the variant
//	                                                    stream); the ready heap
//	                                                    rebuilds under the new order
//	                                                    during restore
//	RAM / VM machines   byte-identical — mid-release    —
//	                    machines resume at their
//	                    instruction boundary
//	bus schedule        slot/gap geometry               Seed, LossPerMille, JitterNs
//	                                                    overridden; RotateSlots
//	                                                    rotates slot ownership;
//	                                                    in-flight frames are dropped
//	                                                    (their departure draws belong
//	                                                    to the old seed) and TX stats
//	                                                    zeroed, queued frames kept
//	session trace       discarded — each variant        fresh arena-backed trace;
//	                    records only its own window     trace buffers recycle across
//	                                                    forks on the same worker
//	breakpoints /       armed conditions survive the    —
//	agent               fork (the campaign runners
//	                    fork from unpaused prefixes)
//
// The aggregate over all variants is a pure function of the campaign
// spec: variants are planned from one splitmix64 stream, executed by a
// work-stealing pool (internal/sched) with per-worker simulator
// instances, and observations are indexed by variant — so one worker or
// N produce byte-identical JSON, which CI diffs.
package target
