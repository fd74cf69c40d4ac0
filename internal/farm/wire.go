// Package farm is the debug-farm server: one long-running process
// multiplexing many isolated model-debug sessions — each an independent
// simulated board or TDMA cluster — behind a newline-delimited JSON-RPC
// wire API over TCP. The paper's workflow assumes one engineer, one
// board, one session; the farm turns the same pipeline into a service:
//
//   - every control action (create/attach/break/step/run-until/rewind/…)
//     is a wire request; a session created with recordMs keeps the
//     checkpoint recorder's host-action log, which replays it and which
//     the journal request returns as data;
//   - each model is compiled once and the immutable program is shared
//     across every session of that model (per-session state is board RAM
//     plus pooled machines);
//   - checkpoints are stored content-addressed (SHA-256 of the serialized
//     checkpoint.Checkpoint), so a session can detach, be resumed by
//     another gmdfd process pointed at the same store, and replay
//     byte-identically;
//   - trace events and incidents stream back to the attached connection,
//     and /stats exposes active sessions, attach-latency percentiles and
//     events-streamed counters.
package farm

import (
	"encoding/json"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Request is one client -> server message: a JSON object on a single
// line. IDs are client-chosen, non-zero, and echoed on the response.
type Request struct {
	ID      uint64          `json:"id"`
	Method  string          `json:"method"`
	Session string          `json:"session,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
}

// ServerMsg is one server -> client line: a response to a request (ID
// echoed, Result or Error set) or, when Stream is non-empty, an
// asynchronous stream message for a session this connection is attached
// to ("events", "incident", "rewound").
type ServerMsg struct {
	ID     uint64          `json:"id,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`

	Stream  string         `json:"stream,omitempty"`
	Session string         `json:"session,omitempty"`
	Events  []trace.Record `json:"events,omitempty"`
	Event   *trace.Record  `json:"event,omitempty"`
}

// CreateParams starts a new session ("model") or resumes a detached one
// from the content-addressed store ("model" + "checkpoint" digest).
type CreateParams struct {
	// Model is a built-in model name (models.ByName), debugged exactly as
	// `gmdf -model` debugs it: on its standard board, or, placed on
	// several nodes, as a cluster session on the standard TDMA bus.
	Model string `json:"model"`
	// Checkpoint, when set, is the content address of a stored checkpoint
	// to resume from (the digest a detach or checkpoint request returned,
	// possibly to a different gmdfd process sharing the store).
	Checkpoint string `json:"checkpoint,omitempty"`
	// RecordMs, when non-zero, attaches the periodic checkpoint recorder
	// (cadence in virtual ms) so the session supports rewind and keeps the
	// host-action log the journal request returns. Single-board sessions
	// only.
	RecordMs uint64 `json:"recordMs,omitempty"`
	// Source, when non-empty, is scenario DSL text (.gmdf): the session
	// debugs the system it declares instead of a built-in model. The
	// server runs the full front end (parse, check, lint) and rejects the
	// create when any stage reports errors — the wire error carries the
	// rendered file:line:col diagnostics with caret excerpts. Model is
	// ignored when Source is set.
	Source string `json:"source,omitempty"`
	// SourceName labels Source in rendered diagnostics (defaults to
	// "scenario.gmdf").
	SourceName string `json:"sourceName,omitempty"`
}

// CreateResult identifies the new session.
type CreateResult struct {
	Session string   `json:"session"`
	Model   string   `json:"model"`
	Nodes   []string `json:"nodes,omitempty"` // cluster sessions
	NowNs   uint64   `json:"nowNs"`
	Records int      `json:"records"` // trace records carried over by a resume
}

// AttachResult reports the session state at attach time; subsequent trace
// records stream to the attached connection as "events" messages.
type AttachResult struct {
	Model   string `json:"model"`
	NowNs   uint64 `json:"nowNs"`
	Paused  bool   `json:"paused"`
	Records int    `json:"records"`
}

// BreakParams installs (or replaces) a model-level breakpoint. Either the
// state-entry convenience (Machine+State, the target condition is
// computed server-side and pushed onto the target-resident agent), the
// deadline-miss convenience (MissActor), or the raw pattern fields.
type BreakParams struct {
	ID         string `json:"id"`
	Machine    string `json:"machine,omitempty"`
	State      string `json:"state,omitempty"`
	MissActor  string `json:"missActor,omitempty"`
	Event      string `json:"event,omitempty"` // protocol event name, e.g. "StateEnter"
	Source     string `json:"source,omitempty"`
	Arg1       string `json:"arg1,omitempty"`
	Cond       string `json:"cond,omitempty"`
	TargetCond string `json:"targetCond,omitempty"`
	OneShot    bool   `json:"oneShot,omitempty"`
}

// BreakResult reports where the breakpoint was armed.
type BreakResult struct {
	OnTarget bool `json:"onTarget"`
}

// ClearBreakParams removes a breakpoint by id.
type ClearBreakParams struct {
	ID string `json:"id"`
}

// RunParams advances the session: UntilNs is an absolute virtual-time
// target, Ms a relative budget (UntilNs wins when both are set). The run
// stops early when a breakpoint pauses the session.
type RunParams struct {
	Ms      uint64 `json:"ms,omitempty"`
	UntilNs uint64 `json:"untilNs,omitempty"`
}

// RunResult reports where the run ended.
type RunResult struct {
	NowNs     uint64 `json:"nowNs"`
	Paused    bool   `json:"paused"`
	LastBreak string `json:"lastBreak,omitempty"`
	// HaltNs is the target time of the halt LastBreak names (the Break
	// record's t), earlier than NowNs by the frame's trip to the host.
	HaltNs  uint64 `json:"haltNs,omitempty"`
	Handled uint64 `json:"handled"`
	Records int    `json:"records"`
}

// StepParams advances to the next model-level event. Target selects the
// target-resident step (halt at the emitting instruction); MaxMs bounds
// the wait in virtual ms (default 1000).
type StepParams struct {
	Target bool   `json:"target,omitempty"`
	MaxMs  uint64 `json:"maxMs,omitempty"`
}

// CheckpointResult is the content address of a stored checkpoint.
type CheckpointResult struct {
	Digest string `json:"digest"`
	TimeNs uint64 `json:"timeNs"`
	Bytes  int    `json:"bytes"`
}

// RewindParams reverse-steps the session to a virtual instant (needs
// RecordMs at create).
type RewindParams struct {
	ToMs uint64 `json:"toMs,omitempty"`
	ToNs uint64 `json:"toNs,omitempty"`
}

// RewindResult reports the instant actually reached.
type RewindResult struct {
	LandedNs uint64 `json:"landedNs"`
	Records  int    `json:"records"`
}

// DetachParams ends the session. With Checkpoint the final state is
// stored content-addressed first, so the session can be resumed — by this
// server or another process sharing the store.
type DetachParams struct {
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// DetachResult carries the resume digest when one was requested.
type DetachResult struct {
	Digest string `json:"digest,omitempty"`
	TimeNs uint64 `json:"timeNs"`
}

// TraceResult is the session trace in the stable text format (the same
// bytes `gmdf -trace` writes, so remote and in-process traces diff
// directly).
type TraceResult struct {
	Stable  string `json:"stable"`
	Records int    `json:"records"`
}

// JournalResult is a recording session's host-action log
// (checkpoint.Recorder.Host): each session command, input write, raw wire
// instruction and restore, at the virtual instant it was taken, in the
// order a replay re-applies them. Reads such as trace are not in it.
type JournalResult struct {
	Entries []checkpoint.InputRecord `json:"entries"`
}

// Stats is the server-wide counter snapshot (the wire "stats" method and
// the HTTP /stats endpoint serve the same value).
type Stats struct {
	ActiveSessions  int    `json:"activeSessions"`
	SessionsCreated uint64 `json:"sessionsCreated"`
	SessionsResumed uint64 `json:"sessionsResumed"`
	SessionsClosed  uint64 `json:"sessionsClosed"`
	Requests        uint64 `json:"requests"`
	EventsStreamed  uint64 `json:"eventsStreamed"`
	Incidents       uint64 `json:"incidents"`
	ProgramsCached  int    `json:"programsCached"`
	StoreEntries    int    `json:"storeEntries"`

	// Attach-latency histogram (wall-clock handling time of attach
	// requests) in log2 buckets, plus computed percentiles.
	AttachCount   uint64   `json:"attachCount"`
	AttachP50Ns   uint64   `json:"attachP50Ns"`
	AttachP99Ns   uint64   `json:"attachP99Ns"`
	AttachMaxNs   uint64   `json:"attachMaxNs"`
	AttachBuckets []uint64 `json:"attachBuckets,omitempty"` // bucket i: latency < 2^i µs
}

// eventTypeByName maps protocol event-type names (EventType.String) back
// to values for wire breakpoint specs.
var eventTypeByName = func() map[string]protocol.EventType {
	m := make(map[string]protocol.EventType)
	for t := protocol.EvHello; t <= protocol.EvFrameDropped; t++ {
		m[t.String()] = t
	}
	return m
}()

// ParseEventType resolves a protocol event name ("StateEnter", "Signal",
// …) used in wire breakpoint specs.
func ParseEventType(name string) (protocol.EventType, error) {
	if t, ok := eventTypeByName[name]; ok {
		return t, nil
	}
	return protocol.EvInvalid, fmt.Errorf("farm: unknown event type %q", name)
}
