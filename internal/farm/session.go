package farm

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// session is one multiplexed debug session: an independent simulated
// board or TDMA cluster behind one debugger, plus its journal and
// streaming cursor. All access goes through mu — sessions are fully
// isolated from each other (separate boards, kernels, GDMs, traces); the
// only shared artifact is the immutable compiled program.
type session struct {
	id    string
	model string

	mu  sync.Mutex
	dbg *repro.Debugger

	journal []JournalEntry
	jseq    uint64

	// sink is the connection attached to this session's event stream;
	// streamed is the count of trace records already pushed to it.
	sink     *conn
	streamed int

	closed bool
}

// errClosed is returned for requests racing a detach.
func (ss *session) errClosed() error {
	return fmt.Errorf("farm: session %s is detached", ss.id)
}

// journalReq appends one control request to the session journal, stamped
// with the session's virtual time at receipt. On a server every host
// action crosses the wire, so this journal is the complete host-action
// log interactive replay needs.
func (ss *session) journalReq(method string, params json.RawMessage) {
	ss.jseq++
	var p json.RawMessage
	if len(params) > 0 {
		p = append(json.RawMessage(nil), params...)
	}
	ss.journal = append(ss.journal, JournalEntry{
		Seq: ss.jseq, VTNs: ss.dbg.Now(), Method: method, Params: p,
	})
}

// setBreak resolves a wire breakpoint spec against this session's system
// and installs it — validation happens inside engine.Session.SetBreakpoint
// before anything is armed on the target.
func (ss *session) setBreak(p BreakParams) (BreakResult, error) {
	if p.ID == "" {
		return BreakResult{}, fmt.Errorf("farm: breakpoint with empty id")
	}
	bp := engine.Breakpoint{
		ID: p.ID, Source: p.Source, Arg1: p.Arg1,
		Cond: p.Cond, TargetCond: p.TargetCond, OneShot: p.OneShot,
	}
	switch {
	case p.Machine != "" || p.State != "":
		if p.Machine == "" || p.State == "" {
			return BreakResult{}, fmt.Errorf("farm: state breakpoint needs both machine and state")
		}
		bp.Event = protocol.EvStateEnter
		bp.Source = p.Machine
		bp.Arg1 = p.State
		cond, err := ss.dbg.StateCond(p.Machine, p.State)
		if err != nil {
			return BreakResult{}, err
		}
		if bp.TargetCond == "" {
			bp.TargetCond = cond
		}
	case p.MissActor != "":
		cond, err := ss.dbg.MissCond(p.MissActor)
		if err != nil {
			return BreakResult{}, err
		}
		miss := engine.MissBreakpoint(p.ID, p.MissActor)
		miss.TargetCond = cond
		miss.OneShot = p.OneShot
		bp = miss
	case p.Event != "":
		t, err := ParseEventType(p.Event)
		if err != nil {
			return BreakResult{}, err
		}
		bp.Event = t
	case p.TargetCond == "":
		return BreakResult{}, fmt.Errorf("farm: breakpoint %s needs machine/state, missActor, event, or targetCond", p.ID)
	}
	if err := ss.dbg.Session.SetBreakpoint(bp); err != nil {
		return BreakResult{}, err
	}
	for _, installed := range ss.dbg.Session.Breakpoints() {
		if installed.ID == p.ID {
			return BreakResult{OnTarget: installed.OnTarget()}, nil
		}
	}
	return BreakResult{}, nil
}

// step advances to the next model-level event (target-resident when
// requested and available).
func (ss *session) step(p StepParams) error {
	maxMs := p.MaxMs
	if maxMs == 0 {
		maxMs = 1000
	}
	wait := time.Duration(maxMs) * time.Millisecond
	if p.Target {
		return ss.dbg.StepOnTarget(wait)
	}
	return ss.dbg.StepEvent(wait)
}

// incident reports whether a trace record is an incident — something the
// attached client should see even when it only skims the event stream.
func incident(r trace.Record) bool {
	switch r.Event.Type {
	case protocol.EvBreak, protocol.EvBreakHit, protocol.EvDeadlineMiss,
		protocol.EvPreempt, protocol.EvOverrun, protocol.EvFrameDropped:
		return true
	}
	return false
}
