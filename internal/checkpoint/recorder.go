package checkpoint

import (
	"fmt"
	"math"
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

// InputRecord is one logged action: an input write (Node, Actor, Port,
// Val), a raw host-to-target wire instruction on Node's command channel
// when In is set, or a session command when Cmd is set. Site is the actor
// whose release ran the environment hook that made a write, empty for a
// host action.
type InputRecord struct {
	At    uint64
	Node  string
	Site  string
	Actor string
	Port  string
	Val   value.Encoded
	In    *protocol.Instruction
	Cmd   func()
}

// Recorder implements record-and-revisit debugging over a Target — one
// board or a whole cluster. It takes periodic checkpoints and logs what is
// not a function of target state: the writes each node's environment hook
// makes, and the host actions — session commands, input writes and raw
// wire instructions made between Advance calls. Below the frontier — the
// farthest instant the live run has reached — the logs are authoritative:
// RewindTo restores a checkpoint, and every Advance from there re-applies
// them where they were made (a command by running it again), so a replay
// and a plain run reproduce the timeline alike. What a run makes itself
// (bus deliveries, re-latches, the one-shot disarm; a cluster's bus draws
// come from the checkpointed RNG) is not logged. Each log is one global
// sequence over the shared virtual clock, replayed by one cursor. A
// recorded target runs only through Advance (RunNs, RewindTo,
// ReplayUntil), and a host action below the frontier, a Restore
// included, forks the timeline (see logHost). It satisfies
// engine.Rewinder; attach it with Session.AttachRewinder.
type Recorder struct {
	Target  Target
	Session *engine.Session
	// Serials maps node name -> that node's command channel (absent on
	// passive sessions).
	Serials map[string]*engine.SerialSource

	// IntervalNs is the periodic checkpoint cadence in virtual time.
	IntervalNs uint64

	cps []*Checkpoint

	// env holds the writes made inside environment hooks, replayed at the
	// same release site; host holds the host actions, replayed at the
	// instant they were taken.
	env  []InputRecord
	host []InputRecord
	// site is the actor whose release is running the live environment
	// hook, "" outside it; advancing is set while Advance runs.
	site      string
	advancing bool

	// frontier is the farthest instant the live timeline has reached, and
	// below it the logs are authoritative; envEnd is the farthest instant
	// the environment hooks ran to, which a fork does not lower.
	frontier  uint64
	envEnd    uint64
	replaying bool
	envReplay bool
	envPtr    int
	hostPtr   int
}

// Attach interposes a recorder on every node of a target + session and
// takes the initial checkpoint. Attach after arming standing breakpoints
// (the initial checkpoint carries them) and after any restore; from then
// on, every session command, input write or wire instruction made between
// Advance calls is a host action. intervalNs zero means DefaultIntervalNs.
func Attach(t Target, s *engine.Session, serials map[string]*engine.SerialSource, intervalNs uint64) (*Recorder, error) {
	if intervalNs == 0 {
		intervalNs = DefaultIntervalNs
	}
	r := &Recorder{
		Target: t, Session: s, Serials: serials,
		IntervalNs: intervalNs,
		frontier:   t.Now(),
		envEnd:     t.Now(),
	}
	for _, node := range t.Nodes() {
		b := t.Board(node)
		live := b.PreLatch
		b.PreLatch = func(now uint64, actor string) { r.preLatch(node, live, now, actor) }
		b.OnInput = func(now uint64, actor, port string, v value.Value) {
			rec := InputRecord{At: now, Node: node, Site: r.site, Actor: actor, Port: port, Val: value.Encode(v)}
			if r.site != "" {
				r.env = append(r.env, rec)
			} else {
				r.logHost(rec)
			}
		}
		if src := serials[node]; src != nil {
			src.Tap = func(in protocol.Instruction) { r.logHost(InputRecord{At: t.Now(), Node: node, In: &in}) }
		}
	}
	if _, err := r.TakeCheckpoint(); err != nil {
		return nil, err
	}
	return r, nil
}

// Checkpoints returns the checkpoints taken so far, in time order.
func (r *Recorder) Checkpoints() []*Checkpoint { return r.cps }

// Inputs returns the logged environment writes (diagnostics).
func (r *Recorder) Inputs() []InputRecord { return r.env }

// Host returns the logged host actions (diagnostics).
func (r *Recorder) Host() []InputRecord { return r.host }

// Replaying reports whether the session is currently below the recorded
// frontier, re-executing from the logs.
func (r *Recorder) Replaying() bool { return r.replaying }

// observe is Advance's hook at each grid point: it takes a periodic
// checkpoint when the interval has elapsed. It is a no-op during replay
// (the checkpoints for that window already exist).
func (r *Recorder) observe(now uint64) error {
	if r.replaying || now < r.cps[len(r.cps)-1].Time+r.IntervalNs {
		return nil
	}
	_, err := r.TakeCheckpoint()
	return err
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

// logHost logs a host action: a session command, or a write or wire
// instruction made outside any environment hook. Inside Advance it is not
// a host action — a bus delivery, a re-latch, a logged action re-applied,
// the session's one-shot disarm — and the replay makes it again. Between
// Advance calls below the frontier it forks the timeline at now: the
// recorded future (host actions not yet re-applied, checkpoints after
// now) is dropped, now becomes the frontier, and the session is live
// again. The environment log is kept, because a hook's own state (the
// heating plant's room and clock) belongs to envEnd: up to there the fork
// gets the logged writes (see preLatch), so the environment does not
// react to what the fork changed.
func (r *Recorder) logHost(rec InputRecord) {
	if r.advancing {
		return
	}
	if r.replaying {
		r.host = r.host[:r.hostPtr]
		r.cps = r.cps[:sort.Search(len(r.cps), func(i int) bool { return r.cps[i].Time > rec.At })]
		r.frontier, r.replaying = rec.At, false
	}
	r.host = append(r.host, rec)
}

// Command implements engine.Rewinder: it logs run, a session command, as
// a host action at now, and runs it. The wire instructions run sends
// belong to the command, so they are not logged again; a replay through
// now runs the command again, and they are sent again.
func (r *Recorder) Command(run func()) {
	r.logHost(InputRecord{At: r.Target.Now(), Cmd: run})
	was := r.advancing
	r.advancing = true
	run()
	r.advancing = was
}

// preLatch replaces each node's environment hook: past envEnd the live
// environment runs (and its writes are logged via OnInput); below it the
// logged writes for this (instant, node, release site) are re-applied
// instead, so the environment's own state — which belongs to envEnd, not
// the rewound or forked instant — is never consulted.
func (r *Recorder) preLatch(node string, live func(now uint64, actor string), now uint64, actor string) {
	r.replaying = r.replaying && now <= r.frontier
	if r.envReplay && now <= r.envEnd {
		for r.envPtr < len(r.env) && r.env[r.envPtr].At < now {
			r.envPtr++
		}
		for ; r.envPtr < len(r.env); r.envPtr++ {
			rec := r.env[r.envPtr]
			if rec.At != now || rec.Node != node || rec.Site != actor {
				break
			}
			r.write(rec)
		}
		return
	}
	r.envReplay = false
	if live != nil {
		r.site = actor
		live(now, actor)
		r.site = ""
	}
}

// write re-applies one logged input write on the node that received it.
func (r *Recorder) write(rec InputRecord) {
	if v, err := value.Decode(rec.Val); err == nil {
		_ = r.Target.Board(rec.Node).WriteInput(rec.Actor, rec.Port, v)
	}
}

// beginReplay positions the log cursors for re-execution from now.
func (r *Recorder) beginReplay(now uint64) {
	r.replaying, r.envReplay = true, true
	r.envPtr = sort.Search(len(r.env), func(i int) bool { return r.env[i].At >= now })
	r.hostPtr = sort.Search(len(r.host), func(i int) bool { return r.host[i].At >= now })
}

// applyHost re-applies the host actions logged at now, while replaying:
// a command runs again, an input write is made again, and a raw wire
// instruction is sent again (the sequence counter restored with the
// checkpoint stamps it as the live run did). It returns the instant the
// next logged host action waits at, math.MaxUint64 when none does.
func (r *Recorder) applyHost(now uint64) uint64 {
	for r.hostPtr < len(r.host) && r.host[r.hostPtr].At < now {
		r.hostPtr++
	}
	for ; r.hostPtr < len(r.host) && r.host[r.hostPtr].At == now; r.hostPtr++ {
		switch rec := r.host[r.hostPtr]; {
		case rec.Cmd != nil:
			rec.Cmd()
		case rec.In != nil:
			_ = r.Serials[rec.Node].Send(*rec.In)
		default:
			r.write(rec)
		}
	}
	if r.hostPtr < len(r.host) {
		return r.host[r.hostPtr].At
	}
	return math.MaxUint64
}

// Advance is the one loop that moves a debug session forward: live runs,
// rewinds and replays. It runs the target to each grid point (a multiple
// of SliceNs) up to limit, polls the session there, fails with the first
// node whose generated code aborted, and lets the recorder r (nil when
// none is attached) observe. An off-grid stop is reached with a partial
// slice that polls and services nothing (RunThrough). While r replays,
// every instant a host action was logged at is stopped on and gets it
// again, and the run is live from the frontier on. Nothing made inside
// Advance is logged as a host action. stop (nil for none) is checked
// before every slice and at limit.
func Advance(t Target, s *engine.Session, r *Recorder, limit uint64, stop func(now uint64) bool) error {
	if r != nil {
		r.advancing = true
		defer func() { r.advancing = false }()
	}
	nodes := t.Nodes() // one copy per call, not per slice
	for {
		now, cut := t.Now(), limit
		if r != nil && r.replaying {
			cut = min(cut, r.applyHost(now))
			r.replaying = now < r.frontier
		}
		if r != nil {
			r.envReplay = r.envReplay && now < r.envEnd
		}
		if r != nil && !r.replaying {
			r.frontier = max(r.frontier, now)
			r.envEnd = max(r.envEnd, now)
		}
		if stop != nil && stop(now) || now >= limit {
			return nil
		}
		next := (now/SliceNs + 1) * SliceNs
		if next > cut {
			t.RunThrough(cut)
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
// RunNs reports it. A host action taken after landing below the frontier
// — a session command (a farm client's break, clearbreak, step, pause or
// continue), an input write or a raw wire instruction — forks the
// timeline there and drops the recorded future past it, all but the
// environment's writes (see logHost).
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

// Restore applies cp, a checkpoint of this session's target, as a host
// action at its instant: it forks the timeline there (see logHost), a
// replay through that instant applies cp again, and an anchor checkpoint
// of the restored state is taken there.
func (r *Recorder) Restore(cp *Checkpoint) error {
	apply := func() error { return Apply(cp, r.Target, r.Session, r.Serials) }
	if err := apply(); err != nil {
		return err
	}
	r.beginReplay(cp.Time)
	// cp applied once to this target, so a replay's apply cannot fail.
	r.logHost(InputRecord{At: cp.Time, Cmd: func() { _ = apply() }})
	_, err := r.TakeCheckpoint()
	return err
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
