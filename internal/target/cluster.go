package target

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/internal/value"
)

// DefaultLatencyNs is the cluster network latency when ClusterConfig
// leaves it zero (100 µs — a time-triggered fieldbus slot).
const DefaultLatencyNs = 100_000

// ExecMode once selected a cluster executor.
//
// Deprecated: every cluster runs on the one serial kernel; ignored.
type ExecMode uint8

// Execution modes.
const (
	// ExecAuto was the default mode.
	//
	// Deprecated: every cluster runs on the one serial kernel; ignored.
	ExecAuto ExecMode = iota
	// ExecSerial asked for the serial kernel explicitly.
	//
	// Deprecated: every cluster runs on the one serial kernel; ignored.
	ExecSerial
)

// ClusterConfig parameterises BuildCluster.
type ClusterConfig struct {
	// LatencyNs is the network transmission latency for cross-node signal
	// bindings: the fixed end-to-end delay without a Bus schedule, the
	// propagation delay after slot departure with one.
	LatencyNs uint64
	// Bus, when non-nil, replaces the constant-latency network with a
	// time-triggered TDMA bus: cross-node publishes join the producing
	// node's TX queue and depart in that node's slots (dtm.BusSchedule —
	// slot grid, release jitter, seeded loss). Every node that produces a
	// cross-node binding must own at least one slot. Each board gains a
	// kernel-maintained "__busdrops" RAM counter, and departures/losses are
	// announced with EvBusSlot/EvFrameDropped frames from the sending node.
	Bus *dtm.BusSchedule
	// Compile carries code-generation options applied to every node's
	// program (instrumentation, fault injection).
	Compile codegen.Options
	// Board is the per-node board configuration (baud, CPU clock); the
	// system's bindings are appended automatically.
	Board Config
	// Exec is kept for source compatibility.
	//
	// Deprecated: every cluster runs on the one serial kernel; ignored.
	Exec ExecMode
}

// Cluster is a multi-node deployment: one Board per placement node, all
// sharing a single virtual clock, with cross-node signal bindings carried
// by a latency network. Every board's events run on the one shared
// kernel, drained on the goroutine that calls RunUntil.
type Cluster struct {
	// Kernel is the shared discrete-event kernel every board runs on.
	Kernel *dtm.Kernel
	// Net carries cross-node signal messages (Net.Sent counts them).
	Net *dtm.Network
	// Boards maps node name -> board.
	Boards map[string]*Board

	nodes  []string
	boards []*Board // in node order

	// running guards RunUntil against re-entrant calls (from an event
	// callback or a second goroutine), which would corrupt the shared
	// event heap.
	running bool
}

// BuildCluster compiles each placement node's actors into a program,
// boots one board per node on a shared kernel, and wires cross-node
// bindings through a latency network. Every route is resolved here, to
// symbol indices, inbox stores and bus senders (resolveRoutes), so running
// the cluster looks no node, actor, port or signal name up per frame.
func BuildCluster(sys *comdes.System, cfg ClusterConfig) (*Cluster, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cfg.LatencyNs == 0 {
		cfg.LatencyNs = DefaultLatencyNs
	}
	k := dtm.NewKernel()
	c := &Cluster{
		Kernel: k,
		Net:    dtm.NewNetwork(k, cfg.LatencyNs),
		Boards: map[string]*Board{},
		nodes:  sys.Nodes(),
	}
	if cfg.Bus != nil {
		if err := c.Net.SetSchedule(cfg.Bus); err != nil {
			return nil, err
		}
		cfg.Compile.BusDrops = true
		// Every producing node needs a slot, or its frames can never leave
		// the TX queue — refuse at build time rather than dropping silently.
		for _, bind := range sys.Bindings {
			from, to := sys.NodeOf(bind.FromActor), sys.NodeOf(bind.ToActor)
			if from != to && !cfg.Bus.Owns(from) {
				return nil, fmt.Errorf("target: node %s produces cross-node signal %q but owns no bus slot", from, bind.Signal)
			}
		}
	}
	for _, node := range c.nodes {
		sub := comdes.NewSystem(node)
		for _, a := range sys.Actors {
			if sys.NodeOf(a.Name()) != node {
				continue
			}
			if err := sub.AddActor(a); err != nil {
				return nil, err
			}
		}
		prog, err := codegen.Compile(sub, cfg.Compile)
		if err != nil {
			return nil, fmt.Errorf("target: node %s: %w", node, err)
		}
		bcfg := cfg.Board
		bcfg.Bindings = append(append([]comdes.Binding(nil), bcfg.Bindings...), sys.Bindings...)
		brd, err := NewBoard(node, prog, bcfg, k)
		if err != nil {
			return nil, fmt.Errorf("target: node %s: %w", node, err)
		}
		c.Boards[node] = brd
		c.boards = append(c.boards, brd)
	}
	// Each node's inbox is its local view of the global signal board:
	// arriving messages are pushed into the consumer's __io input symbols
	// immediately (so RAM watchers see them at arrival time), and every
	// consumer release re-latches from the board — reference interpreter
	// semantics, so a host-injected __io value cannot outlive the next
	// release the way it would if delivery were change-triggered only.
	for _, node := range c.nodes {
		brd := c.Boards[node]
		brd.inbox = dtm.NewStore(k.Now)
		brd.sender = c.Net.Sender(node)
		c.Net.Bind(node, brd.inbox)
	}
	if err := c.resolveRoutes(sys); err != nil {
		return nil, err
	}
	if cfg.Bus != nil {
		// Bus incidents surface from the sending node's board: a departure
		// is announced with EvBusSlot, a loss lands in the node's __busdrops
		// RAM counter and goes out as EvFrameDropped (where on-target
		// breakpoint conditions over __busdrops can halt the board).
		c.Net.OnSlot = func(now uint64, owner, signal string, slot uint64) {
			if brd := c.Boards[owner]; brd != nil {
				brd.busSlot(now, signal, slot)
			}
		}
		c.Net.OnDrop = func(now uint64, owner, signal string, total uint64) {
			if brd := c.Boards[owner]; brd != nil {
				brd.busDrop(now, signal, total)
			}
		}
	}
	return c, nil
}

// resolveRoutes resolves every binding once, in sys.Bindings order, so the
// per-publish, per-release and per-delivery work walks slices instead of
// looking names up:
//   - the producer's published port lists the consumer's signal and inbox
//     (intra-node bindings are delivered by the board itself), and sends
//     through its node's bus sender, so a TDMA schedule queues the frame
//     into that node's slots;
//   - the consumer's unit lists the input as network-fed when the producer
//     sits on another node, and re-latches it from the inbox at each
//     release;
//   - the consumer node's inbox writes a changed signal into the input
//     symbols of every consumer of that signal on the node.
func (c *Cluster) resolveRoutes(sys *comdes.System) error {
	ins := make(map[string]map[string][]netInput, len(c.nodes)) // node -> signal -> inputs
	for _, bind := range sys.Bindings {
		from, to := sys.NodeOf(bind.FromActor), sys.NodeOf(bind.ToActor)
		dst := c.Boards[to]
		var ue *unitExec
		if dst != nil {
			ue = dst.exec[bind.ToActor]
		}
		if ue == nil {
			return fmt.Errorf("target: binding %q: unknown consumer actor %q", bind.Signal, bind.ToActor)
		}
		sym, ok := ue.u.InputSyms[bind.ToPort]
		if !ok {
			return fmt.Errorf("target: binding %q: actor %s has no input %q", bind.Signal, bind.ToActor, bind.ToPort)
		}
		in := netInput{actor: bind.ToActor, port: bind.ToPort, signal: bind.Signal, sym: sym}
		if ins[to] == nil {
			ins[to] = map[string][]netInput{}
		}
		ins[to][bind.Signal] = append(ins[to][bind.Signal], in)
		if from == to {
			continue
		}
		ue.netIn = append(ue.netIn, in)
		if src := c.Boards[from]; src != nil {
			if pe, ok := src.exec[bind.FromActor]; ok {
				for i := range pe.plan.pubs {
					if port := &pe.plan.pubs[i]; port.name == bind.FromPort {
						port.remote = append(port.remote, remoteRoute{signal: bind.Signal, dst: dst.inbox})
					}
				}
			}
		}
	}
	for _, node := range c.nodes {
		brd, bySignal := c.Boards[node], ins[node]
		brd.inbox.OnChange = func(now uint64, signal string, old, new value.Value) {
			for _, in := range bySignal[signal] {
				if err := brd.writeInput(in.actor, in.port, in.sym, new); err != nil {
					brd.fail(err)
				}
			}
		}
	}
	return nil
}

// BusStats returns node's TX accounting on the time-triggered bus. ok is
// false when the node is unknown to the bus (no schedule installed, or a
// node owning no slot that never sent) — previously that case returned a
// zero BusStats, indistinguishable from a slot owner with no traffic.
func (c *Cluster) BusStats(node string) (dtm.BusStats, bool) { return c.Net.Stats(node) }

// Nodes returns the cluster's node names in sorted order.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.nodes...) }

// Now returns the shared virtual time.
func (c *Cluster) Now() uint64 { return c.Kernel.Now() }

// RunUntil advances the whole cluster to absolute time t, executing every
// board's releases, deadlines and network deliveries in global event order
// on the shared kernel, then drains each board's UART boundary work.
// Re-entrant calls (from an event callback or a second goroutine) panic
// rather than corrupt the event heap.
func (c *Cluster) RunUntil(t uint64) {
	if c.running {
		panic("target: re-entrant Cluster.RunUntil")
	}
	c.running = true
	defer func() { c.running = false }()
	c.Kernel.RunUntil(t)
	for _, brd := range c.boards {
		brd.sync(t)
	}
}

// RunThrough is Board.RunThrough for every node: the shared clock moves to
// t without servicing any node's UART there.
func (c *Cluster) RunThrough(t uint64) { c.Kernel.RunUntil(t) }

// Board returns the named node's board, or nil.
func (c *Cluster) Board(node string) *Board { return c.Boards[node] }
