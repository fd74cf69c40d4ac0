package engine

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/jtag"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Explicit-state forms of the host side of a debugging session: the trace
// recorded so far, the installed breakpoints (including whether each lives
// on the target), the run mode and pause flag, and the serial command
// channel's sequence/deframing state. Together with a target.BoardState
// this is everything a fresh process needs to continue a session with a
// byte-identical trace — internal/checkpoint composes the two.

// BreakpointState is the portable form of one model-level breakpoint.
type BreakpointState struct {
	ID         string             `json:"id"`
	Event      protocol.EventType `json:"event,omitempty"`
	Source     string             `json:"source,omitempty"`
	Arg1       string             `json:"arg1,omitempty"`
	Cond       string             `json:"cond,omitempty"`
	OneShot    bool               `json:"oneShot,omitempty"`
	Enabled    bool               `json:"enabled"`
	TargetCond string             `json:"targetCond,omitempty"`
	Hits       uint64             `json:"hits,omitempty"`
	OnTarget   bool               `json:"onTarget,omitempty"`
}

// SessionState is the portable host-side state of a Session.
type SessionState struct {
	Paused    bool              `json:"paused,omitempty"`
	Mode      uint8             `json:"mode,omitempty"`
	Handled   uint64            `json:"handled,omitempty"`
	LastBreak string            `json:"lastBreak,omitempty"`
	Breaks    []BreakpointState `json:"breaks,omitempty"`
	Trace     *trace.Trace      `json:"trace"`

	// Watcher is the passive JTAG watch engine's change-detection state
	// (previous values + event seq), captured when a WatcherSource is
	// attached. Without it a restored passive session's first poll would
	// re-announce unchanged watches (fresh cache = baseline re-report) or
	// diff against values from the abandoned future (stale live cache).
	Watcher *jtag.WatcherState `json:"watcher,omitempty"`
}

// Snapshot captures the session's host-side state. The trace is a Clone:
// it shares the live trace's sealed history and copies only the unsealed
// tail, so the live session appending more records does not change the
// snapshot, and a snapshot costs at most one chunk of copying.
func (s *Session) Snapshot() SessionState {
	st := SessionState{
		Paused:  s.paused,
		Mode:    uint8(s.mode),
		Handled: s.Handled,
		Trace:   s.Trace.Clone(),
	}
	if s.LastBreak != nil {
		st.LastBreak = s.LastBreak.ID
	}
	for _, bp := range s.breaks {
		st.Breaks = append(st.Breaks, BreakpointState{
			ID: bp.ID, Event: bp.Event, Source: bp.Source, Arg1: bp.Arg1,
			Cond: bp.Cond, OneShot: bp.OneShot, Enabled: bp.Enabled,
			TargetCond: bp.TargetCond, Hits: bp.Hits, OnTarget: bp.onTarget,
		})
	}
	if w := s.watcher(); w != nil {
		ws := w.Snapshot()
		st.Watcher = &ws
	}
	return st
}

// watcher returns the passive watch engine behind the session's
// WatcherSource, nil when no passive source is attached.
func (s *Session) watcher() *jtag.Watcher {
	for _, src := range s.sources {
		if ws, ok := src.(*WatcherSource); ok {
			return ws.Watcher
		}
	}
	return nil
}

// Restore rewinds the session's host-side state to a snapshot. No wire
// traffic is generated: breakpoints marked on-target are assumed to be
// armed by the board state restored alongside (the agent's armed set is
// part of target.BoardState). The GDM animation is rebuilt by replaying
// the restored trace through the reaction pipeline, so the animated view
// shows the rewound instant, not the abandoned future.
func (s *Session) Restore(st SessionState) error {
	s.paused = st.Paused
	s.mode = Mode(st.Mode)
	s.Handled = st.Handled
	if st.Trace != nil {
		s.Trace = st.Trace.Clone()
	} else {
		s.Trace = trace.New(s.Trace.Program)
	}
	s.breaks = nil
	s.LastBreak = nil
	for _, bs := range st.Breaks {
		bp := &Breakpoint{
			ID: bs.ID, Event: bs.Event, Source: bs.Source, Arg1: bs.Arg1,
			Cond: bs.Cond, OneShot: bs.OneShot, Enabled: bs.Enabled,
			TargetCond: bs.TargetCond, Hits: bs.Hits, onTarget: bs.OnTarget,
		}
		if bp.Cond != "" {
			node, err := expr.Parse(bp.Cond)
			if err != nil {
				return fmt.Errorf("engine: restore breakpoint %s: %w", bp.ID, err)
			}
			bp.cond = node
		}
		s.breaks = append(s.breaks, bp)
		if bs.ID == st.LastBreak {
			s.LastBreak = bp
		}
	}
	if st.Watcher != nil {
		w := s.watcher()
		if w == nil {
			return fmt.Errorf("engine: restore of passive watcher state onto a session with no watcher source")
		}
		if err := w.Restore(*st.Watcher); err != nil {
			return err
		}
	}
	s.GDM.ResetAnimation()
	for _, r := range s.Trace.Records {
		if r.Event.Type == protocol.EvBreakHit {
			// pauseAt appends the host-side halt marker without handing it
			// to the GDM; replaying it here would skew the reaction
			// counters the live session never incremented.
			continue
		}
		if _, err := s.GDM.HandleEvent(r.Event); err != nil {
			return fmt.Errorf("engine: restore trace replay: %w", err)
		}
	}
	s.GDM.SetHalted(st.Paused)
	return nil
}

// SerialSourceState is the portable form of the host command channel.
type SerialSourceState struct {
	Seq uint16                `json:"seq"`
	Dec protocol.DecoderState `json:"dec,omitempty"`
}

// Snapshot captures the channel's sequence counter and deframing state.
func (s *SerialSource) Snapshot() SerialSourceState {
	return SerialSourceState{Seq: s.seq, Dec: s.dec.Snapshot()}
}

// Restore rewinds the channel state.
func (s *SerialSource) Restore(st SerialSourceState) {
	s.seq = st.Seq
	s.dec.Restore(st.Dec)
}

// Rewinder is the session's attachment point for the checkpoint
// subsystem (internal/checkpoint.Recorder, for a board or a cluster,
// satisfies it structurally; engine deliberately does not import it).
type Rewinder interface {
	// RewindTo restores the nearest checkpoint at or before t and
	// deterministically re-executes forward to exactly t. It returns the
	// instant actually reached.
	RewindTo(t uint64) (uint64, error)
	// ReplayUntil re-executes forward until cond reports true (checked
	// before every slice) or maxNs of virtual time has elapsed; it reports
	// whether cond was met.
	ReplayUntil(cond func(now uint64) bool, maxNs uint64) (bool, error)
	// Command runs one host command the session was given (set or clear
	// a breakpoint, pause, continue, step) and logs it, so that a replay
	// through this instant runs it again. run may be called again on
	// every replay; it must act only on the session's state at the time.
	Command(run func())
}

// AttachRewinder gives the session reverse-execution controls.
func (s *Session) AttachRewinder(r Rewinder) { s.rewinder = r }

// RewindTo reverse-steps the session to virtual instant t: the attached
// recorder restores its last checkpoint at or before t and re-executes
// deterministically forward to exactly t — the record-and-revisit
// workflow the DTM experiments need for long runs.
func (s *Session) RewindTo(t uint64) (uint64, error) {
	if s.rewinder == nil {
		return 0, fmt.Errorf("engine: no checkpoint recorder attached (see internal/checkpoint)")
	}
	return s.rewinder.RewindTo(t)
}

// ReplayUntil re-executes forward from the current (typically rewound)
// instant until cond holds, bounded by maxNs of virtual time.
func (s *Session) ReplayUntil(cond func(now uint64) bool, maxNs uint64) (bool, error) {
	if s.rewinder == nil {
		return false, fmt.Errorf("engine: no checkpoint recorder attached (see internal/checkpoint)")
	}
	return s.rewinder.ReplayUntil(cond, maxNs)
}
