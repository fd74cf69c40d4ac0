package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro"
	"repro/bench/harness"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/target"
)

// chunkNs is the virtual time one measured RunNs call advances.
const chunkNs = 100_000_000

// sliceNs is the pump slice of the facade's RunNs loop; the traced runner
// unrolls that loop and must use the same slice to reproduce its trace.
const sliceNs = 1_000_000

// sessionSpec is everything one debug session is built from.
type sessionSpec struct {
	sys func() (*comdes.System, error) // a fresh system per session
	// Board sessions: the program compiled once in set-up, the board
	// configuration and a constructor for a fresh environment (nil: none).
	prog  *codegen.Program
	board target.Config
	env   func() func(now uint64, b *target.Board)
	// cluster, when set, makes this a cluster session on the returned
	// configuration.
	cluster func(nodes []string) target.ClusterConfig
}

// facade is a session built and run the way users do: repro.Debug or
// repro.DebugCluster, advanced with RunNs.
type facade struct {
	dbg  *repro.Debugger
	cdbg *repro.ClusterDebugger
}

func buildFacade(s *sessionSpec) (*facade, error) {
	sys, err := s.sys()
	if err != nil {
		return nil, err
	}
	if s.cluster != nil {
		cdbg, err := repro.DebugCluster(sys, repro.ClusterDebugConfig{Cluster: s.cluster(sys.Nodes())})
		return &facade{cdbg: cdbg}, err
	}
	cfg := repro.DebugConfig{Transport: repro.Active, Board: s.board, Program: s.prog}
	if s.env != nil {
		cfg.Environment = s.env()
	}
	dbg, err := repro.Debug(sys, cfg)
	return &facade{dbg: dbg}, err
}

func (f *facade) runNs(ns uint64) error {
	if f.dbg != nil {
		return f.dbg.RunNs(ns)
	}
	return f.cdbg.RunNs(ns)
}

func (f *facade) session() *engine.Session {
	if f.dbg != nil {
		return f.dbg.Session
	}
	return f.cdbg.Session
}

func (f *facade) now() uint64 {
	if f.dbg != nil {
		return f.dbg.Board.Now()
	}
	return f.cdbg.Cluster.Now()
}

func (f *facade) enableCheckpointing(interval time.Duration) error {
	var err error
	if f.dbg != nil {
		_, err = f.dbg.EnableCheckpointing(interval)
	} else {
		_, err = f.cdbg.EnableCheckpointing(interval)
	}
	return err
}

func (f *facade) view() simView {
	if f.dbg != nil {
		return simView{sess: f.dbg.Session, boards: []*target.Board{f.dbg.Board}, now: f.dbg.Board.Now()}
	}
	return clusterView(f.cdbg.Session, f.cdbg.Cluster)
}

func (f *facade) checkpoint() (*checkpoint.Checkpoint, error) {
	if f.dbg != nil {
		return f.dbg.Checkpoint()
	}
	return f.cdbg.Checkpoint()
}

func (f *facade) restore(cp *checkpoint.Checkpoint) error {
	if f.dbg != nil {
		return f.dbg.RestoreCheckpoint(cp)
	}
	return f.cdbg.RestoreCheckpoint(cp)
}

func (f *facade) sys() *comdes.System {
	if f.dbg != nil {
		return f.dbg.Sys
	}
	return f.cdbg.Sys
}

// layered is the traced form of a facade session: the same pipeline
// assembled from its public parts, so the benchmark can wrap each layer
// boundary in a span — the environment hook, the serial EventSource, the
// Translate→OnReaction interval of every event — and unroll RunNs into
// its RunFor / RunUntil and ProcessEvents calls. Its outputs must equal
// the facade's; every traced run checks that.
type layered struct {
	tr        *harness.Tracer
	board     *target.Board
	cl        *target.Cluster
	sess      *engine.Session
	reactOpen bool
}

// polled wraps an EventSource in an engine.poll span.
type polled struct {
	src engine.EventSource
	tr  *harness.Tracer
}

func (p polled) Poll(now uint64) []protocol.Event {
	p.tr.Begin("engine.poll")
	evs := p.src.Poll(now)
	p.tr.End()
	return evs
}

// clusterControl halts and resumes every node together, as the facade's
// cluster debugger does.
type clusterControl struct{ cl *target.Cluster }

func (c clusterControl) Halt() {
	for _, n := range c.cl.Nodes() {
		c.cl.Boards[n].Halt()
	}
}

func (c clusterControl) Resume() {
	for _, n := range c.cl.Nodes() {
		c.cl.Boards[n].Resume()
	}
}

func (c clusterControl) Halted() bool {
	for _, n := range c.cl.Nodes() {
		if !c.cl.Boards[n].Halted() {
			return false
		}
	}
	return len(c.cl.Nodes()) > 0
}

func buildLayered(s *sessionSpec, tr *harness.Tracer) (*layered, error) {
	sys, err := s.sys()
	if err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	l := &layered{tr: tr}
	var ctl engine.TargetControl
	var ports []*engine.SerialSource
	if s.cluster != nil {
		ccfg := s.cluster(sys.Nodes())
		ccfg.Compile.Instrument = codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}
		if l.cl, err = target.BuildCluster(sys, ccfg); err != nil {
			return nil, err
		}
		ctl = clusterControl{l.cl}
		for _, n := range l.cl.Nodes() {
			ports = append(ports, engine.NewSerialSource(l.cl.Boards[n].HostPort()))
		}
	} else {
		bcfg := s.board
		bcfg.Bindings = append(bcfg.Bindings, sys.Bindings...)
		if l.board, err = target.NewBoard("main", s.prog, bcfg, nil); err != nil {
			return nil, err
		}
		if s.env != nil {
			env, b := s.env(), l.board
			b.PreLatch = func(now uint64, actor string) {
				tr.Begin("env.plant")
				env(now, b)
				tr.End()
			}
		}
		ctl = l.board
		ports = append(ports, engine.NewSerialSource(l.board.HostPort()))
	}
	model, err := comdes.ToModel(sys, comdes.Metamodel())
	if err != nil {
		return nil, err
	}
	gdm, err := core.Abstract(model, engine.DefaultCOMDESMapping())
	if err != nil {
		return nil, err
	}
	if err := engine.BindCOMDES(gdm); err != nil {
		return nil, err
	}
	l.sess = engine.NewSession(gdm, ctl)
	for _, p := range ports {
		l.sess.AddSource(polled{p, tr})
	}
	l.sess.UseRemote(ports[0])
	l.sess.Translate = func(ev protocol.Event) protocol.Event {
		tr.Begin("engine.react")
		l.reactOpen = true
		return ev
	}
	l.sess.OnReaction = func(protocol.Event, []core.Reaction) {
		l.reactOpen = false
		tr.End()
	}
	return l, nil
}

func (l *layered) now() uint64 {
	if l.board != nil {
		return l.board.Now()
	}
	return l.cl.Now()
}

// runNs is the facade's RunNs, unrolled into spans.
func (l *layered) runNs(ns uint64) error {
	end := l.now() + ns
	for l.now() < end {
		if l.sess.Paused() {
			return nil
		}
		l.tr.Begin("target.run")
		if l.board != nil {
			l.board.RunFor(sliceNs)
		} else {
			l.cl.RunUntil(l.cl.Now() + sliceNs)
		}
		l.tr.End()
		l.tr.Begin("engine.process")
		_, err := l.sess.ProcessEvents(l.now())
		if l.reactOpen { // HandleEvent failed before OnReaction
			l.reactOpen = false
			l.tr.End()
		}
		l.tr.End()
		if err != nil {
			return err
		}
		if l.cl != nil {
			for _, n := range l.cl.Nodes() {
				if err := l.cl.Boards[n].Err(); err != nil {
					return fmt.Errorf("node %s: %w", n, err)
				}
			}
		}
	}
	return nil
}

func (l *layered) view() simView {
	if l.board != nil {
		return simView{sess: l.sess, boards: []*target.Board{l.board}, now: l.board.Now()}
	}
	return clusterView(l.sess, l.cl)
}

// simView is what a finished session is judged by: its trace, its boards'
// counters and, for a cluster, its network.
type simView struct {
	sess   *engine.Session
	boards []*target.Board
	net    *dtm.Network
	now    uint64
}

func clusterView(sess *engine.Session, cl *target.Cluster) simView {
	v := simView{sess: sess, net: cl.Net, now: cl.Now()}
	for _, n := range cl.Nodes() {
		v.boards = append(v.boards, cl.Boards[n])
	}
	return v
}

// digest hashes the trace (streamed as JSON lines, so a long cluster
// trace never becomes one large string) and the exact counters.
func (v simView) digest() string {
	h := sha256.New()
	if err := v.sess.Trace.WriteJSONL(h); err != nil {
		return "trace: " + err.Error()
	}
	fmt.Fprintf(h, "now=%d handled=%d\n", v.now, v.sess.Handled)
	for _, b := range v.boards {
		st := b.Link.PortA().Stats()
		fmt.Fprintf(h, "%s cycles=%d instr=%d misses=%d preempt=%d uart=%d drops=%d\n",
			b.Name, b.Cycles(), b.InstrumentationCycles(), b.DeadlineMisses(), b.Preemptions(), st.Bytes, st.FramesDropped)
	}
	if v.net != nil {
		fmt.Fprintf(h, "net sent=%d dropped=%d\n", v.net.Sent, v.net.Dropped)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counts are the exact work counts of a set of sessions.
type counts struct {
	vns                        uint64 // virtual time simulated
	cycles, instr              uint64
	releases, preempts, misses uint64
	events                     uint64
	uartBytes, framesDropped   uint64
	busFrames, busDrops        uint64
}

func (c *counts) add(v simView, vns uint64) {
	c.vns += vns
	c.events += v.sess.Handled
	for _, b := range v.boards {
		c.cycles += b.Cycles()
		c.instr += b.InstrumentationCycles()
		c.preempts += b.Preemptions()
		c.misses += b.DeadlineMisses()
		for _, t := range b.Tasks() {
			c.releases += t.Releases
		}
		st := b.Link.PortA().Stats()
		c.uartBytes += st.Bytes
		c.framesDropped += st.FramesDropped
	}
	if v.net != nil {
		c.busFrames += v.net.Sent
		c.busDrops += v.net.Dropped
	}
}
