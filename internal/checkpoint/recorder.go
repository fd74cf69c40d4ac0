package checkpoint

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/value"
)

// DefaultIntervalNs is the periodic checkpoint cadence when Attach is
// given zero (250 virtual milliseconds).
const DefaultIntervalNs = 250_000_000

// SliceNs is the grid Advance polls the host side on (1 ms of virtual
// time): live runs, rewinds and replays all poll at the multiples of
// SliceNs, so replayed host receive stamps reproduce exactly.
const SliceNs = 1_000_000

// keepCheckpoints bounds the retained checkpoint list. Each checkpoint
// carries every node's RAM image and a trace copy, so an unbounded list
// grows quadratically over very long runs. When the cap is hit the oldest
// periodic checkpoint after the initial one is evicted — rewinds reach the
// whole run, at coarser granularity near the beginning.
const keepCheckpoints = 64

// InputRecord is one logged WriteInput stimulus on a named node.
type InputRecord struct {
	At    uint64        `json:"at"`
	Node  string        `json:"node"`
	Actor string        `json:"actor"`
	Port  string        `json:"port"`
	Val   value.Encoded `json:"val"`
}

// InstrRecord is one logged host-to-target wire instruction on a named
// node's command channel.
type InstrRecord struct {
	At   uint64               `json:"at"`
	Node string               `json:"node"`
	In   protocol.Instruction `json:"in"`
}

// Recorder implements record-and-revisit debugging over a Target — one
// board or a whole cluster. It takes periodic checkpoints while logging,
// per node, the two non-deterministic input streams (environment
// WriteInputs and host wire instructions). Below the frontier — the
// farthest instant the live run has reached — the logs are authoritative:
// RewindTo restores a checkpoint, and every Advance from there re-applies
// them, so re-execution reproduces the original timeline exactly whether
// ReplayUntil or a plain run drives it. Everything else in a cluster run —
// bus arbitration, frame loss, jitter — is drawn from the network's seeded
// RNG, which the checkpoints capture. The logs are kept in one global
// sequence: every node advances on one shared virtual clock in a
// deterministic order, so a single cursor replays events in the order
// they originally interleaved. It satisfies engine.Rewinder; attach it
// with Session.AttachRewinder.
type Recorder struct {
	Target  Target
	Session *engine.Session
	// Serials maps node name -> that node's command channel (absent on
	// passive sessions).
	Serials map[string]*engine.SerialSource

	// IntervalNs is the periodic checkpoint cadence in virtual time.
	IntervalNs uint64

	cps    []*Checkpoint
	lastCp uint64

	// inputs are environment stimuli written during PreLatch (replayed at
	// the same release sites); manual are stimuli written outside it —
	// user pokes between run slices, a cluster's pre-release refresh —
	// replayed at slice starts.
	inputs []InputRecord
	manual []InputRecord
	instrs []InstrRecord
	inEnv  bool

	// frontier is the farthest instant the live timeline has reached; below
	// it the logs are authoritative and the recorder replays instead of
	// recording.
	frontier  uint64
	replaying bool
	inPtr     int
	manPtr    int
	insPtr    int
}

// Attach interposes a recorder on every node of a target + session and
// takes the initial checkpoint. Attach after arming standing breakpoints
// (the initial checkpoint carries them) and after any restore. intervalNs
// zero means DefaultIntervalNs.
func Attach(t Target, s *engine.Session, serials map[string]*engine.SerialSource, intervalNs uint64) (*Recorder, error) {
	if intervalNs == 0 {
		intervalNs = DefaultIntervalNs
	}
	r := &Recorder{
		Target: t, Session: s, Serials: serials,
		IntervalNs: intervalNs,
		frontier:   t.Now(),
	}
	for _, node := range t.Nodes() {
		b := t.Board(node)
		live := b.PreLatch
		b.PreLatch = func(now uint64, actor string) { r.preLatch(node, live, now, actor) }
		b.OnInput = func(now uint64, actor, port string, v value.Value) { r.logInput(node, now, actor, port, v) }
		if src := serials[node]; src != nil {
			src.Tap = func(in protocol.Instruction) { r.logInstr(node, in) }
		}
	}
	if _, err := r.TakeCheckpoint(); err != nil {
		return nil, err
	}
	return r, nil
}

// Checkpoints returns the checkpoints taken so far, in time order.
func (r *Recorder) Checkpoints() []*Checkpoint { return r.cps }

// Inputs returns the logged input stimuli (diagnostics).
func (r *Recorder) Inputs() []InputRecord { return r.inputs }

// Instructions returns the logged wire instructions (diagnostics).
func (r *Recorder) Instructions() []InstrRecord { return r.instrs }

// Replaying reports whether the session is currently below the recorded
// frontier, re-executing from the logs.
func (r *Recorder) Replaying() bool { return r.replaying }

// observe is Advance's hook at each grid point: it advances the frontier
// and takes a periodic checkpoint when the interval has elapsed. It is a
// no-op during replay (the checkpoints for that window already exist).
func (r *Recorder) observe(now uint64) error {
	if r.replaying {
		return nil
	}
	if now > r.frontier {
		r.frontier = now
	}
	if now >= r.lastCp+r.IntervalNs {
		_, err := r.TakeCheckpoint()
		return err
	}
	return nil
}

// TakeCheckpoint captures the current state and appends it to the
// checkpoint list, evicting the oldest periodic checkpoint (the initial
// one is always kept) once the retention cap is reached.
func (r *Recorder) TakeCheckpoint() (*Checkpoint, error) {
	cp, err := Capture(r.Target, r.Session, r.Serials)
	if err != nil {
		return nil, err
	}
	if len(r.cps) >= keepCheckpoints {
		r.cps = append(r.cps[:1], r.cps[2:]...)
	}
	r.cps = append(r.cps, cp)
	r.lastCp = cp.Time
	return cp, nil
}

// LastBefore returns the latest checkpoint with Time <= t, or nil.
func (r *Recorder) LastBefore(t uint64) *Checkpoint {
	i := sort.Search(len(r.cps), func(i int) bool { return r.cps[i].Time > t })
	if i == 0 {
		return nil
	}
	return r.cps[i-1]
}

// logInput is every board's OnInput hook (record mode only). Writes made
// inside a node's environment hook replay at the same PreLatch site;
// writes made anywhere else land in the manual log, replayed at slice
// starts.
func (r *Recorder) logInput(node string, now uint64, actor, port string, v value.Value) {
	if r.replaying {
		return
	}
	rec := InputRecord{At: now, Node: node, Actor: actor, Port: port, Val: value.Encode(v)}
	if r.inEnv {
		r.inputs = append(r.inputs, rec)
	} else {
		r.manual = append(r.manual, rec)
	}
}

// logInstr is each node's serial-source Tap hook (record mode only).
func (r *Recorder) logInstr(node string, in protocol.Instruction) {
	if r.replaying {
		return
	}
	r.instrs = append(r.instrs, InstrRecord{At: r.Target.Now(), Node: node, In: in})
}

// preLatch replaces each node's environment hook: in record mode the live
// environment runs (and its writes are logged via OnInput); in replay mode
// the logged writes for this (instant, node, actor) release site are
// re-applied instead, so the environment's own state — which belongs to
// the live frontier, not the rewound instant — is never consulted.
func (r *Recorder) preLatch(node string, live func(now uint64, actor string), now uint64, actor string) {
	if r.replaying && now <= r.frontier {
		for r.inPtr < len(r.inputs) && r.inputs[r.inPtr].At < now {
			r.inPtr++
		}
		for r.inPtr < len(r.inputs) {
			ir := r.inputs[r.inPtr]
			if ir.At != now || ir.Node != node || ir.Actor != actor {
				break
			}
			r.write(ir)
			r.inPtr++
		}
		return
	}
	if r.replaying {
		r.endReplay()
	}
	if live != nil {
		r.inEnv = true
		live(now, actor)
		r.inEnv = false
	}
}

// write re-applies one logged stimulus on the node that received it.
func (r *Recorder) write(ir InputRecord) {
	if v, err := value.Decode(ir.Val); err == nil {
		_ = r.Target.Board(ir.Node).WriteInput(ir.Actor, ir.Port, v)
	}
}

// endReplay hands control back to the live environment once re-execution
// has caught up with the recorded frontier.
func (r *Recorder) endReplay() {
	r.replaying = false
	r.Session.SetReplaying(false)
}

// beginReplay positions the log cursors for re-execution from now.
func (r *Recorder) beginReplay(now uint64) {
	r.replaying = true
	r.Session.SetReplaying(true)
	r.inPtr = sort.Search(len(r.inputs), func(i int) bool { return r.inputs[i].At >= now })
	r.manPtr = sort.Search(len(r.manual), func(i int) bool { return r.manual[i].At >= now })
	r.insPtr = sort.Search(len(r.instrs), func(i int) bool { return r.instrs[i].At >= now })
}

// applyManual re-injects stimuli that were written outside environment
// hooks, at the slice start where the original write sat between run
// slices.
func (r *Recorder) applyManual(now uint64) {
	for r.manPtr < len(r.manual) && r.manual[r.manPtr].At < now {
		r.manPtr++
	}
	for r.manPtr < len(r.manual) && r.manual[r.manPtr].At == now {
		r.write(r.manual[r.manPtr])
		r.manPtr++
	}
}

// sendLogged re-injects every logged instruction stamped exactly now on
// its original node's command channel. A pause/resume implied host-flag
// flip is mirrored without wire traffic.
func (r *Recorder) sendLogged(now uint64) {
	for r.insPtr < len(r.instrs) && r.instrs[r.insPtr].At < now {
		r.insPtr++
	}
	for r.insPtr < len(r.instrs) && r.instrs[r.insPtr].At == now {
		rec := r.instrs[r.insPtr]
		if src := r.Serials[rec.Node]; src != nil {
			_ = src.Resend(rec.In)
			switch rec.In.Type {
			case protocol.InPause:
				r.Session.SetPausedState(true)
			case protocol.InResume, protocol.InStep:
				r.Session.SetPausedState(false)
			}
		}
		r.insPtr++
	}
}

// Advance is the one loop that moves a debug session forward: live runs,
// rewinds and replays. It runs the target to each grid point (a multiple
// of SliceNs) up to limit, polls the session there, fails with the first
// node whose generated code aborted, and lets the recorder r (nil when
// none is attached) observe. An off-grid limit is reached with a partial
// slice that polls and services nothing (RunThrough). While r replays,
// each instant first gets the wire instructions and manual writes logged
// there, and the run is live again from the frontier on. stop (nil for
// none) is checked before every slice and at limit.
func Advance(t Target, s *engine.Session, r *Recorder, limit uint64, stop func(now uint64) bool) error {
	nodes := t.Nodes() // one copy per call, not per slice
	for {
		now := t.Now()
		if r != nil && r.replaying {
			r.sendLogged(now)
			r.applyManual(now)
			if now >= r.frontier {
				r.endReplay()
			}
		}
		if stop != nil && stop(now) || now >= limit {
			return nil
		}
		next := (now/SliceNs + 1) * SliceNs
		if next > limit {
			t.RunThrough(limit)
			continue
		}
		t.RunUntil(next)
		if _, err := s.ProcessEvents(next); err != nil {
			return err
		}
		for _, n := range nodes {
			if err := t.Board(n).Err(); err != nil {
				return fmt.Errorf("repro: node %s: %w", n, err)
			}
		}
		if r != nil {
			if err := r.observe(next); err != nil {
				return err
			}
		}
	}
}

// RewindTo implements engine.Rewinder: restore the latest checkpoint at
// or before t, then Advance through the recorded timeline to exactly t.
// The landing instant is exact — t falls wherever it falls relative to
// instruction boundaries; the target state is the one the original
// timeline had at that very nanosecond, host actions logged there
// included. A node whose generated code aborted on the way is reported as
// RunNs reports it.
func (r *Recorder) RewindTo(t uint64) (uint64, error) {
	cp := r.LastBefore(t)
	if cp == nil {
		return 0, fmt.Errorf("checkpoint: no checkpoint at or before t=%d", t)
	}
	if err := Apply(cp, r.Target, r.Session, r.Serials); err != nil {
		return 0, err
	}
	r.beginReplay(r.Target.Now())
	err := Advance(r.Target, r.Session, r, t, nil)
	return r.Target.Now(), err
}

// ReplayUntil implements engine.Rewinder: Advance from the current
// (typically rewound) instant until cond reports true, bounded by maxNs of
// virtual time. cond is checked before every slice and at the bound.
// During replay a breakpoint pause does not stop the run — the logged
// resume that cleared it in the original timeline clears it here too.
func (r *Recorder) ReplayUntil(cond func(now uint64) bool, maxNs uint64) (bool, error) {
	if r.Target.Now() < r.frontier && !r.replaying {
		r.beginReplay(r.Target.Now())
	}
	met := false
	err := Advance(r.Target, r.Session, r, r.Target.Now()+maxNs, func(now uint64) bool {
		met = cond(now)
		return met
	})
	return met, err
}
