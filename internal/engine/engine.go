// Package engine implements the GMDF Runtime Engine (Fig. 2 C of the
// paper): the on-call server that displays the debug model, listens for
// commands sent by the target code, performs reactions, and offers the
// model-level debugging controls the paper promises — step-wise execution,
// model-level breakpoints, trace recording and replay.
package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/jtag"
	"repro/internal/protocol"
	"repro/internal/serial"
	"repro/internal/trace"
	"repro/internal/value"
)

// EventSource delivers target events to the session. Implementations:
// SerialSource (active interface), WatcherSource (passive JTAG),
// trace.Replayer (offline replay).
type EventSource interface {
	Poll(now uint64) []protocol.Event
}

// TargetControl is the slice of target behaviour the engine needs to pause
// and resume execution. target.Board satisfies it; NopTarget serves replay
// sessions.
type TargetControl interface {
	Halt()
	Resume()
	Halted() bool
}

// NopTarget is a TargetControl for sessions without a live target.
type NopTarget struct{ halted bool }

// Halt implements TargetControl.
func (n *NopTarget) Halt() { n.halted = true }

// Resume implements TargetControl.
func (n *NopTarget) Resume() { n.halted = false }

// Halted implements TargetControl.
func (n *NopTarget) Halted() bool { return n.halted }

// RemoteDebug is the slice of the active command interface through which
// the session pushes debugging onto the target itself: arming and
// clearing on-target condition breakpoints, stepping to the next model
// event, and pause/resume. The target-resident agent then halts the board
// *at the triggering instruction* instead of one frame round-trip later.
// *SerialSource implements it; passive (JTAG) and replay sources do not,
// so sessions over those fall back to host-side trace filtering.
type RemoteDebug interface {
	// SetBreak arms (or replaces) breakpoint id with an expression over
	// target symbol names, compiled by the firmware via internal/expr.
	SetBreak(id, cond string) error
	// ClearBreak disarms breakpoint id.
	ClearBreak(id string) error
	// StepTarget resumes the target until its next model-level event.
	StepTarget() error
	// PauseTarget / ResumeTarget are the wire form of halt and resume.
	PauseTarget() error
	ResumeTarget() error
}

// SerialSource adapts the host side of the RS-232 link: it drains received
// bytes through the streaming frame decoder.
type SerialSource struct {
	Port *serial.Port
	dec  protocol.Decoder
	seq  uint16

	// Tap, when set, observes every instruction Send transmits (after
	// sequence stamping) — the checkpoint recorder's host-action log hooks
	// here so host commands can be re-sent during deterministic replay.
	Tap func(in protocol.Instruction)
}

// NewSerialSource wraps a host serial port.
func NewSerialSource(port *serial.Port) *SerialSource { return &SerialSource{Port: port} }

// Poll implements EventSource.
func (s *SerialSource) Poll(now uint64) []protocol.Event {
	evs, _ := s.dec.Feed(s.Port.Recv())
	return evs
}

// DecodeErrors reports damaged frames seen so far.
func (s *SerialSource) DecodeErrors() int { return s.dec.Errors }

// Send transmits a GDM -> target instruction over the link (remote pause,
// variable read/write); the target firmware services it at its next run
// slice and acknowledges with events.
func (s *SerialSource) Send(in protocol.Instruction) error {
	s.seq++
	in.Seq = s.seq
	wire, err := protocol.EncodeInstruction(in)
	if err != nil {
		return err
	}
	s.Port.Send(wire)
	if s.Tap != nil {
		s.Tap(in)
	}
	return nil
}

// Resend re-transmits an already-stamped instruction verbatim — the
// checkpoint replay path. The sequence counter is fast-forwarded to the
// instruction's own stamp so a live Send after the replayed window
// continues the original numbering instead of reusing it.
func (s *SerialSource) Resend(in protocol.Instruction) error {
	wire, err := protocol.EncodeInstruction(in)
	if err != nil {
		return err
	}
	s.Port.Send(wire)
	if in.Seq > s.seq {
		s.seq = in.Seq
	}
	return nil
}

// SetBreak implements RemoteDebug.
func (s *SerialSource) SetBreak(id, cond string) error {
	return s.Send(protocol.Instruction{Type: protocol.InSetBreak, Source: id, Arg1: cond})
}

// ClearBreak implements RemoteDebug.
func (s *SerialSource) ClearBreak(id string) error {
	return s.Send(protocol.Instruction{Type: protocol.InClearBreak, Source: id})
}

// StepTarget implements RemoteDebug.
func (s *SerialSource) StepTarget() error {
	return s.Send(protocol.Instruction{Type: protocol.InStep})
}

// PauseTarget implements RemoteDebug.
func (s *SerialSource) PauseTarget() error {
	return s.Send(protocol.Instruction{Type: protocol.InPause})
}

// ResumeTarget implements RemoteDebug.
func (s *SerialSource) ResumeTarget() error {
	return s.Send(protocol.Instruction{Type: protocol.InResume})
}

// WatcherSource adapts the passive JTAG watch engine.
type WatcherSource struct {
	Watcher *jtag.Watcher
}

// Poll implements EventSource.
func (w *WatcherSource) Poll(now uint64) []protocol.Event { return w.Watcher.Poll(now) }

// Breakpoint is a model-level breakpoint: it matches incoming model events
// rather than code addresses. Examples: "break when machine heater.ctrl
// enters state Heating", "break when signal heater.power > 90".
type Breakpoint struct {
	ID      string
	Event   protocol.EventType
	Source  string // "" matches any source
	Arg1    string // "" matches any (state name, from-state, …)
	Cond    string // optional expression over value/arg1/arg2/source
	OneShot bool
	Enabled bool

	// TargetCond, when set, is a condition over *target symbol names*
	// ("heater.thermostat.__state == 1"). If the session has a RemoteDebug
	// channel the breakpoint is pushed onto the target-resident agent,
	// which halts the board at the triggering instruction — before the
	// deadline latch publishes and without waiting for an event frame to
	// cross the line. Without a remote channel the Event/Source/Arg1/Cond
	// pattern serves as the host-side (passive-trace) fallback.
	TargetCond string

	Hits     uint64
	cond     expr.Node
	onTarget bool
}

// OnTarget reports whether this breakpoint is armed on the target itself
// rather than filtered host-side.
func (b *Breakpoint) OnTarget() bool { return b.onTarget }

func (b *Breakpoint) matches(ev protocol.Event) (bool, error) {
	if b.onTarget {
		// Checked by the target-resident agent; the hit arrives as EvBreak.
		return false, nil
	}
	if !b.Enabled || b.Event != ev.Type {
		return false, nil
	}
	if b.Source != "" && b.Source != ev.Source {
		return false, nil
	}
	if b.Arg1 != "" && b.Arg1 != ev.Arg1 {
		return false, nil
	}
	if b.cond != nil {
		env := expr.MapEnv{
			"value":  value.F(ev.Value),
			"source": value.S(ev.Source),
			"arg1":   value.S(ev.Arg1),
			"arg2":   value.S(ev.Arg2),
		}
		ok, err := expr.EvalBool(b.cond, env)
		if err != nil {
			return false, fmt.Errorf("engine: breakpoint %s condition: %w", b.ID, err)
		}
		return ok, nil
	}
	return true, nil
}

// Mode is the session run mode.
type Mode uint8

// Session run modes.
const (
	ModeRun  Mode = iota // run freely, react to events
	ModeStep             // pause after the next model-level event
)

// Session is one model-level debugging session: a GDM animated by event
// sources, with breakpoints and trace recording.
type Session struct {
	GDM    *core.GDM
	Target TargetControl
	Trace  *trace.Trace

	sources  []EventSource
	breaks   []*Breakpoint
	remote   RemoteDebug
	mode     Mode
	paused   bool
	rewinder Rewinder

	// Translate, when set, rewrites raw events before handling (the
	// passive-interface translator mapping watch notifications to
	// model-level events).
	Translate func(protocol.Event) protocol.Event

	// OnReaction observes every applied reaction (UI hook).
	OnReaction func(ev protocol.Event, rs []core.Reaction)

	// Stats.
	Handled uint64
	// LastBreak is the most recently hit breakpoint (nil if none).
	LastBreak *Breakpoint
}

// NewSession creates a session over a GDM and a target.
func NewSession(g *core.GDM, target TargetControl) *Session {
	if target == nil {
		target = &NopTarget{}
	}
	return &Session{
		GDM:    g,
		Target: target,
		Trace:  trace.New(g.Name),
	}
}

// AddSource attaches an event source. A source that also offers remote
// debugging (the active serial interface) becomes the session's RemoteDebug
// channel, so later breakpoints prefer the target-resident agent.
func (s *Session) AddSource(src EventSource) {
	s.sources = append(s.sources, src)
	if rd, ok := src.(RemoteDebug); ok && s.remote == nil {
		s.remote = rd
	}
}

// UseRemote sets (or clears) the remote debugging channel explicitly.
func (s *Session) UseRemote(rd RemoteDebug) { s.remote = rd }

// Remote returns the session's remote debugging channel, nil when the
// attached interfaces are passive.
func (s *Session) Remote() RemoteDebug { return s.remote }

// SetBreakpoint installs (or replaces) a model-level breakpoint. A
// breakpoint carrying a TargetCond is pushed onto the target-resident
// agent whenever a RemoteDebug channel is attached — preferred over
// passive-trace filtering because the board then halts at the triggering
// instruction instead of a frame round-trip later. Otherwise the event
// pattern is matched host-side as before.
func (s *Session) SetBreakpoint(bp Breakpoint) error {
	if bp.ID == "" {
		return fmt.Errorf("engine: breakpoint with empty id")
	}
	// Validate everything before any wire traffic: arming the on-target
	// condition first and failing a later check would leave the agent
	// holding a live breakpoint the session never recorded — it could halt
	// the board with no host-side entry to clear it through.
	if bp.TargetCond != "" {
		if _, err := expr.Parse(bp.TargetCond); err != nil {
			return fmt.Errorf("engine: breakpoint %s target condition: %w", bp.ID, err)
		}
	}
	willArm := bp.TargetCond != "" && s.remote != nil
	if bp.Event == protocol.EvInvalid && !willArm {
		return fmt.Errorf("engine: breakpoint %s with no event type", bp.ID)
	}
	if bp.Cond != "" {
		node, err := expr.Parse(bp.Cond)
		if err != nil {
			return fmt.Errorf("engine: breakpoint %s: %w", bp.ID, err)
		}
		bp.cond = node
	}
	if willArm {
		if err := s.remote.SetBreak(bp.ID, bp.TargetCond); err != nil {
			return err
		}
		bp.onTarget = true
	}
	bp.Enabled = true
	for i, ex := range s.breaks {
		if ex.ID == bp.ID {
			// Replacing an on-target breakpoint with a host-side one must
			// disarm the stale condition on the agent (an on-target
			// replacement already re-armed it via SetBreak above).
			if ex.onTarget && !bp.onTarget && s.remote != nil {
				if err := s.remote.ClearBreak(bp.ID); err != nil {
					return err
				}
			}
			s.breaks[i] = &bp
			return nil
		}
	}
	s.breaks = append(s.breaks, &bp)
	return nil
}

// ClearBreakpoint removes a breakpoint by id, disarming it on the target
// when it had been pushed there.
func (s *Session) ClearBreakpoint(id string) error {
	for i, ex := range s.breaks {
		if ex.ID == id {
			if ex.onTarget && s.remote != nil {
				if err := s.remote.ClearBreak(id); err != nil {
					return err
				}
			}
			// Splice without leaving a dangling *Breakpoint in the backing
			// array: the vacated tail slot is nil'd so the removed
			// breakpoint becomes collectable and can never be resurrected
			// by a later append into the shared backing storage.
			copy(s.breaks[i:], s.breaks[i+1:])
			s.breaks[len(s.breaks)-1] = nil
			s.breaks = s.breaks[:len(s.breaks)-1]
			return nil
		}
	}
	return fmt.Errorf("engine: no breakpoint %q", id)
}

// Breakpoints returns the installed breakpoints. The slice is a copy:
// callers may reorder or truncate it freely without corrupting the
// session's matching order (the pointed-to breakpoints are still the live
// ones — hit counters keep updating).
func (s *Session) Breakpoints() []*Breakpoint {
	out := make([]*Breakpoint, len(s.breaks))
	copy(out, s.breaks)
	return out
}

// Paused reports whether the session (and target) is paused.
func (s *Session) Paused() bool { return s.paused }

// HaltNs returns the target time of the latest halt in the trace: the t
// of the last Break record, which is the agent's EvBreak (the instruction
// the board stopped at) or the host-side EvBreakHit. The host receives an
// EvBreak frame some time after the halt, so this is earlier than the
// session clock. It returns 0 when the trace holds no Break record.
func (s *Session) HaltNs() uint64 {
	for i := s.Trace.Len() - 1; i >= 0; i-- {
		if ev := s.Trace.At(i).Event; ev.Type == protocol.EvBreak || ev.Type == protocol.EvBreakHit {
			return ev.Time
		}
	}
	return 0
}

// Pause halts the target and the GDM (the user's pause button). With a
// remote channel attached the wire is the authoritative control path —
// exactly one InPause goes out and the board halts when it services it;
// issuing a direct halt as well would leave a stale wire instruction
// racing later Step/Continue calls. Without a remote the direct
// TargetControl halts immediately.
func (s *Session) Pause() {
	s.paused = true
	if s.remote != nil {
		_ = s.remote.PauseTarget()
	} else {
		s.Target.Halt()
	}
	s.GDM.SetHalted(true)
}

// Continue resumes free-running execution. A target suspended mid-release
// by its on-target agent finishes the interrupted body (and its deferred
// deadline latch) on resume. With a remote channel only the wire resume
// is sent: a direct resume alongside it would leave a stale InResume in
// flight that could blow past a second breakpoint the continuation hits.
func (s *Session) Continue() {
	s.paused = false
	s.mode = ModeRun
	s.LastBreak = nil
	if s.remote != nil {
		_ = s.remote.ResumeTarget()
	} else {
		s.Target.Resume()
	}
	s.GDM.SetHalted(false)
}

// Step resumes execution until the next model-level event reaches the
// host, then pauses — the paper's "model-level step-wise execution",
// filtered host-side (events already in flight on the wire complete the
// step). See StepTarget for the target-resident variant.
func (s *Session) Step() {
	s.paused = false
	s.mode = ModeStep
	s.LastBreak = nil
	s.Target.Resume()
	s.GDM.SetHalted(false)
}

// StepTarget asks the target-resident agent to run to the next model
// event and halt there (InStep on the wire). Unlike Step, the halt
// happens on the board at the event's emitting instruction; the session
// pauses when the EvStepped confirmation arrives. Falls back to Step when
// no remote channel is attached.
func (s *Session) StepTarget() {
	if s.remote == nil {
		s.Step()
		return
	}
	s.paused = false
	s.mode = ModeRun
	s.LastBreak = nil
	s.GDM.SetHalted(false)
	_ = s.remote.StepTarget()
}

// ProcessEvents drains every source, feeding events through translation,
// trace recording, GDM reaction and breakpoint evaluation. It returns the
// number of events handled. When a breakpoint hits (or step mode
// completes), the target is halted; remaining already-received events are
// still processed (they were on the wire), but new target execution stops.
func (s *Session) ProcessEvents(now uint64) (int, error) {
	n := 0
	for _, src := range s.sources {
		for _, ev := range src.Poll(now) {
			if s.Translate != nil {
				ev = s.Translate(ev)
			}
			s.Trace.Append(ev, now)
			rs, err := s.GDM.HandleEvent(ev)
			if err != nil {
				return n, err
			}
			if s.OnReaction != nil {
				s.OnReaction(ev, rs)
			}
			s.Handled++
			n++
			s.mirrorTargetHalt(ev)
			if err := s.checkBreakpoints(ev, now); err != nil {
				return n, err
			}
			if s.mode == ModeStep && !s.paused && isModelEvent(ev.Type) {
				s.pauseAt(now, nil)
			}
		}
	}
	return n, nil
}

// mirrorTargetHalt reacts to the target-resident agent's halt
// notifications: on EvBreak the board already stopped at the triggering
// instruction, so the session pauses and credits the matching breakpoint;
// on EvStepped the requested step completed. The EvBreak record itself is
// the trace marker (no synthetic EvBreakHit is appended — that marker
// denotes a *host-side* halt decision).
func (s *Session) mirrorTargetHalt(ev protocol.Event) {
	switch ev.Type {
	case protocol.EvBreak:
		var hit *Breakpoint
		for _, bp := range s.breaks {
			if bp.ID == ev.Source {
				bp.Hits++
				if bp.OneShot {
					// One-shot semantics for on-target breakpoints: the
					// agent keeps conditions armed until cleared, so the
					// host disarms it after the first hit. A replay of
					// the hit disarms it again, so the checkpoint recorder
					// does not log this disarm.
					bp.Enabled = false
					if bp.onTarget && s.remote != nil {
						_ = s.remote.ClearBreak(bp.ID)
					}
				}
				hit = bp
				break
			}
		}
		s.paused = true
		s.Target.Halt()
		s.GDM.SetHalted(true)
		s.LastBreak = hit
	case protocol.EvStepped:
		s.paused = true
		s.Target.Halt()
		s.GDM.SetHalted(true)
		s.LastBreak = nil
	}
}

// isModelEvent reports whether an event reflects model-level execution
// progress. Lifecycle acks (Halted/Resumed), the boot Hello, halt
// notifications and line diagnostics (EvOverrun drop reports) do not
// complete a model-level step.
func isModelEvent(t protocol.EventType) bool {
	switch t {
	case protocol.EvStateEnter, protocol.EvTransition, protocol.EvSignal,
		protocol.EvTaskStart, protocol.EvTaskDeadline, protocol.EvWatch:
		return true
	}
	return false
}

func (s *Session) checkBreakpoints(ev protocol.Event, now uint64) error {
	for _, bp := range s.breaks {
		ok, err := bp.matches(ev)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		bp.Hits++
		if bp.OneShot {
			bp.Enabled = false
		}
		s.pauseAt(now, bp)
	}
	return nil
}

func (s *Session) pauseAt(now uint64, bp *Breakpoint) {
	s.paused = true
	s.Target.Halt()
	s.GDM.SetHalted(true)
	s.LastBreak = bp
	hit := protocol.Event{Type: protocol.EvBreakHit, Time: now}
	if bp != nil {
		hit.Source = bp.ID
	} else {
		hit.Source = "step"
	}
	s.Trace.Append(hit, now)
}

// TimingDiagram projects the session trace (replay companion).
func (s *Session) TimingDiagram() interface{ ASCII(int) string } {
	return s.Trace.TimingDiagram()
}
