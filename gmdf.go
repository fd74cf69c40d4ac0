// Package repro is the public facade of the GMDF reproduction — the
// Graphical Model Debugger Framework for embedded systems (Zeng, Guo,
// Angelov; DATE 2010) rebuilt as a self-contained Go library.
//
// The one-call entry point assembles the whole paper pipeline:
//
//	sys := ...                        // a COMDES design model
//	dbg, err := repro.Debug(sys, repro.DebugConfig{})
//	dbg.Session.SetBreakpoint(...)    // model-level breakpoints
//	dbg.Run(200*time.Millisecond)     // animate against the live target
//	fmt.Print(dbg.RenderASCII())      // inspect the animated model
//
// Underneath: the model is compiled to target code (internal/codegen),
// loaded on a simulated embedded board (internal/target), reflected into a
// MOF model (internal/comdes + internal/metamodel), abstracted into a
// Graphical Debugger Model (internal/core), and animated by the runtime
// engine (internal/engine) over either the active RS-232 command interface
// or the passive JTAG watch engine.
//
// A placed multi-node system debugs the same way: DebugCluster boots one
// board per node on a TDMA cluster and returns the same *Debugger — a
// board is a one-node target, so running, breakpoints, checkpoints and
// rewind work identically on both. Debug refuses a placed multi-node
// system and DebugCluster a one-node one. The front ends (the gmdf CLI,
// the farm, campaigns) call neither directly: they describe the session
// as a dsl.Scenario, whose Debug method picks between the two.
package repro

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jtag"
	"repro/internal/metamodel"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
)

// Transport selects the command interface of the paper's Fig. 2.
type Transport uint8

// Command interface transports.
const (
	// Active instruments the generated code; commands travel over RS-232
	// and cost target CPU cycles.
	Active Transport = iota
	// Passive leaves the code untouched; the JTAG watch engine extracts
	// monitored variables from RAM with zero target overhead.
	Passive
)

// DebugConfig parameterises Debug.
type DebugConfig struct {
	// Transport selects active (RS-232) or passive (JTAG); Active default.
	Transport Transport
	// Mapping overrides the abstraction pairing (default: the COMDES
	// mapping covering both state machine and dataflow viewpoints).
	Mapping *core.Mapping
	// Instrument overrides the active instrumentation points (default:
	// state entries, transitions and signals).
	Instrument *codegen.Instrument
	// Board overrides the physical board parameters.
	Board target.Config
	// Environment, when set, is invoked at every task release so a plant
	// model can provide sensor inputs and consume actuator outputs.
	Environment func(now uint64, b *target.Board)
	// Program, when non-nil, skips compilation and loads this precompiled
	// program instead. It must come from CompileFor with the same system
	// and config — the farm server compiles each model once and shares the
	// immutable program across hundreds of sessions (per-session state is
	// just board RAM + pooled machines; the IR is never written at run
	// time).
	Program *codegen.Program
}

// CompileFor compiles sys exactly as Debug would under cfg — same
// instrument defaulting, same options — so the result can be handed back
// via DebugConfig.Program and shared across many sessions.
func CompileFor(sys *comdes.System, cfg DebugConfig) (*codegen.Program, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return codegen.Compile(sys, compileOptions(cfg))
}

// compileOptions is the one place the facade's instrument defaulting
// lives; Debug and CompileFor must agree or a shared program would differ
// from a per-session compile.
func compileOptions(cfg DebugConfig) codegen.Options {
	switch {
	case cfg.Transport != Active:
		return codegen.Options{}
	case cfg.Instrument != nil:
		return codegen.Options{Instrument: *cfg.Instrument}
	}
	return codegen.Options{Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}}
}

// Debugger bundles one assembled debugging setup: a single board (Debug)
// or a TDMA cluster (DebugCluster) — one node or many — and the one
// model-level session animated by it.
type Debugger struct {
	Sys     *comdes.System
	Prog    *codegen.Program // single-board sessions only
	Board   *target.Board    // single-board sessions only
	Cluster *target.Cluster  // cluster sessions only
	Meta    *metamodel.Metamodel
	Model   *metamodel.Model
	GDM     *core.GDM
	Session *engine.Session

	// Serials maps node name -> that board's host-side command channel
	// (empty on passive sessions). The session polls them in sorted node
	// order (deterministic traces); the first node's channel doubles as
	// the session's RemoteDebug path.
	Serials map[string]*engine.SerialSource

	// Probe is non-nil for passive sessions.
	Probe   *jtag.Probe
	Watcher *jtag.Watcher

	// Recorder is non-nil once EnableCheckpointing has run.
	Recorder *checkpoint.Recorder

	target checkpoint.Target // Board or Cluster
}

// Debug assembles the full GMDF pipeline for a COMDES system on one board.
// A placed multi-node system is refused: it debugs with DebugCluster.
func Debug(sys *comdes.System, cfg DebugConfig) (*Debugger, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if nodes := sys.Nodes(); len(nodes) > 1 {
		return nil, fmt.Errorf("repro: Debug needs a one-node system (got %d nodes %v); use DebugCluster", len(nodes), nodes)
	}
	prog := cfg.Program
	if prog == nil {
		var err error
		prog, err = codegen.Compile(sys, compileOptions(cfg))
		if err != nil {
			return nil, err
		}
	}
	board, err := target.NewBoard("main", prog, withBindings(cfg.Board, sys), nil)
	if err != nil {
		return nil, err
	}
	if cfg.Environment != nil {
		env := cfg.Environment
		board.PreLatch = func(now uint64, actor string) { env(now, board) }
	}
	d, err := assemble(sys, cfg.Mapping, board, board)
	if err != nil {
		return nil, err
	}
	d.Prog, d.Board = prog, board
	switch cfg.Transport {
	case Active:
		d.addSerial(board)
	case Passive:
		probe := jtag.NewProbe(board.TAP)
		probe.Reset()
		watcher := jtag.NewWatcher(probe)
		if err := engine.AutoWatches(watcher, prog); err != nil {
			return nil, err
		}
		d.Session.AddSource(&engine.WatcherSource{Watcher: watcher})
		d.Session.Translate = engine.WatchTranslator(sys)
		d.Probe = probe
		d.Watcher = watcher
	default:
		return nil, fmt.Errorf("repro: unknown transport %d", cfg.Transport)
	}
	return d, nil
}

// assemble builds the host half Debug and DebugCluster share: the MOF
// model of sys, its Graphical Debugger Model bound to the COMDES
// reactions, and one session whose pause button is ctl.
func assemble(sys *comdes.System, mapping *core.Mapping, t checkpoint.Target, ctl engine.TargetControl) (*Debugger, error) {
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		return nil, err
	}
	if mapping == nil {
		mapping = engine.DefaultCOMDESMapping()
	}
	gdm, err := core.Abstract(model, mapping)
	if err != nil {
		return nil, err
	}
	if err := engine.BindCOMDES(gdm); err != nil {
		return nil, err
	}
	return &Debugger{
		Sys: sys, Meta: meta, Model: model, GDM: gdm,
		Session: engine.NewSession(gdm, ctl),
		Serials: map[string]*engine.SerialSource{},
		target:  t,
	}, nil
}

// addSerial opens b's active command channel and adds it to the session.
func (d *Debugger) addSerial(b *target.Board) {
	src := engine.NewSerialSource(b.HostPort())
	d.Serials[b.Name] = src
	d.Session.AddSource(src)
}

func withBindings(cfg target.Config, sys *comdes.System) target.Config {
	cfg.Bindings = append(cfg.Bindings, sys.Bindings...)
	return cfg
}

// Now returns the target's virtual time in nanoseconds.
func (d *Debugger) Now() uint64 { return d.target.Now() }

// Nodes names the target's nodes in sorted order: the one board's, or
// every node of a cluster.
func (d *Debugger) Nodes() []string { return d.target.Nodes() }

// Node returns the named node's board, or nil.
func (d *Debugger) Node(name string) *target.Board { return d.target.Board(name) }

// Run advances the target and the debugger for dur virtual time, pumping
// events every millisecond of target time. It returns early when a
// model-level breakpoint pauses the session.
func (d *Debugger) Run(dur time.Duration) error {
	return d.RunNs(uint64(dur.Nanoseconds()))
}

// RunNs is Run in raw nanoseconds of virtual time: it advances to the
// first grid point (a multiple of checkpoint.SliceNs) at or past now+durNs,
// so a run that starts off the grid first runs to the next grid point. It
// fails with the first node whose generated code aborted (division by zero
// and friends). Below the recorder's frontier a run re-executes the
// recorded timeline, as ReplayUntil does: it re-applies the logged host
// actions and stops at a pause only once it is live again.
func (d *Debugger) RunNs(durNs uint64) error {
	limit := (d.Now() + durNs + checkpoint.SliceNs - 1) / checkpoint.SliceNs * checkpoint.SliceNs
	return checkpoint.Advance(d.target, d.Session, d.Recorder, limit, func(uint64) bool {
		return d.Session.Paused() && (d.Recorder == nil || !d.Recorder.Replaying())
	})
}

// EnableCheckpointing attaches a checkpoint recorder to the session: an
// initial checkpoint is taken now and further ones every interval of
// virtual time, while environment writes and host actions (input writes
// and wire commands between runs) are logged. The session gains working
// RewindTo/ReplayUntil (reverse-step to the last checkpoint,
// deterministically re-execute forward) — on a cluster, rewind below a bus
// incident and replay the exact frame interleaving that produced it.
// Enable after arming standing breakpoints so the initial checkpoint
// carries them.
func (d *Debugger) EnableCheckpointing(interval time.Duration) (*checkpoint.Recorder, error) {
	if d.Recorder != nil {
		return d.Recorder, nil
	}
	rec, err := checkpoint.Attach(d.target, d.Session, d.Serials, uint64(interval.Nanoseconds()))
	if err != nil {
		return nil, err
	}
	d.Recorder = rec
	d.Session.AttachRewinder(rec)
	return rec, nil
}

// Checkpoint captures the complete execution state — every board (and on
// a cluster the frames queued and in flight on the bus), the session trace
// and the command channels — as one serializable value (see
// checkpoint.Checkpoint.WriteFile for the cross-process form).
func (d *Debugger) Checkpoint() (*checkpoint.Checkpoint, error) {
	return checkpoint.Capture(d.target, d.Session, d.Serials)
}

// RestoreCheckpoint rewinds the debugger — target, session trace,
// breakpoints, command channels — to a checkpoint taken from a debugger
// built from the same model (this process or another).
func (d *Debugger) RestoreCheckpoint(cp *checkpoint.Checkpoint) error {
	return checkpoint.Apply(cp, d.target, d.Session, d.Serials)
}

// Continue resumes after a breakpoint and keeps running for dur.
func (d *Debugger) Continue(dur time.Duration) error {
	d.Session.Continue()
	return d.Run(dur)
}

// StepEvent resumes until exactly one model-level event has been handled.
func (d *Debugger) StepEvent(maxWait time.Duration) error {
	d.Session.Step()
	return d.Run(maxWait)
}

// StepOnTarget asks the target-resident agent to run to the next model
// event and halt there (InStep over the active interface), then waits for
// the EvStepped confirmation. Falls back to host-side stepping on
// passive sessions.
func (d *Debugger) StepOnTarget(maxWait time.Duration) error {
	d.Session.StepTarget()
	return d.Run(maxWait)
}

// BreakOnState arms a model-level breakpoint on a state entry. Over the
// active interface the condition is compiled onto the target-resident
// agent (see StateCond) — the board halts at the state-storing
// instruction, mid-release, before the deadline latch publishes.
// Otherwise it falls back to host-side filtering of EvStateEnter events
// (halt one frame later). Either way, a machine or state the model does
// not have is an error.
func (d *Debugger) BreakOnState(id, machine, state string) error {
	cond, err := d.StateCond(machine, state)
	if err != nil {
		return err
	}
	return d.Session.SetBreakpoint(engine.Breakpoint{
		ID: id, Event: protocol.EvStateEnter, Source: machine, Arg1: state, TargetCond: cond,
	})
}

// StateCond is the on-target condition for a breakpoint on machine
// ("actor.block") entering state. The session arms target conditions
// through its one remote channel, which reaches one node's agent, so the
// condition is "" — host-side filtering — when the machine's actor runs
// on any other node of a cluster.
func (d *Debugger) StateCond(machine, state string) (string, error) {
	cond, err := engine.StateCond(d.Sys, machine, state)
	if err != nil {
		return "", err
	}
	actor, _, _ := strings.Cut(machine, ".")
	return d.onRemote(actor, cond), nil
}

// MissCond is the on-target condition for a deadline-miss breakpoint on
// actor, under StateCond's node rule: "" — host-side filtering of
// EvDeadlineMiss events — when the actor runs on a node the session's
// remote channel does not reach.
func (d *Debugger) MissCond(actor string) (string, error) {
	cond, err := engine.MissCond(d.Sys, actor)
	if err != nil {
		return "", err
	}
	return d.onRemote(actor, cond), nil
}

// onRemote returns cond when actor's node is the one the session's remote
// channel reaches (or the session has none), and "" otherwise.
func (d *Debugger) onRemote(actor, cond string) string {
	if rd := d.Session.Remote(); rd != nil && rd != engine.RemoteDebug(d.Serials[d.nodeOf(actor)]) {
		return ""
	}
	return cond
}

// nodeOf names the node actor runs on: the one board, or the node the
// system places it on.
func (d *Debugger) nodeOf(actor string) string {
	if d.Board != nil {
		return d.Board.Name
	}
	return d.Sys.NodeOf(actor)
}

// BreakOnDeadlineMiss arms the standard deadline-overrun breakpoint for an
// actor. Over the active interface the condition runs on the target's
// kernel scheduling counter (`actor.__misses`, see MissCond) and halts the
// board at the latch instant of the missing release; on passive sessions,
// and for an actor on a cluster node the remote channel does not reach,
// EvDeadlineMiss events are filtered host-side.
func (d *Debugger) BreakOnDeadlineMiss(id, actor string) error {
	cond, err := d.MissCond(actor)
	if err != nil {
		return err
	}
	bp := engine.MissBreakpoint(id, actor)
	bp.TargetCond = cond
	return d.Session.SetBreakpoint(bp)
}

// RenderSVG renders the current animated model view.
func (d *Debugger) RenderSVG() string { return d.GDM.Scene().SVG() }

// RenderASCII renders the current animated model view for terminals.
func (d *Debugger) RenderASCII() string { return d.GDM.Scene().ASCII(0, 0) }

// TimingDiagramASCII renders the recorded trace as a timing diagram; on a
// TDMA cluster the "bus" track is the slot-grid lane (value = transmitting
// node, 'x' marks = lost frames).
func (d *Debugger) TimingDiagramASCII(width int) string {
	return d.Session.Trace.TimingDiagram().ASCII(width)
}

// WriteInput injects a value on an actor input (manual stimulus), on the
// board the actor runs on.
func (d *Debugger) WriteInput(actor, port string, v value.Value) error {
	b := d.target.Board(d.nodeOf(actor))
	if b == nil {
		return fmt.Errorf("repro: no actor %q", actor)
	}
	return b.WriteInput(actor, port, v)
}
