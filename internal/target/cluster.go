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

	nodes []string
	inbox map[string]*dtm.Store

	// running guards RunUntil against re-entrant calls (from an event
	// callback or a second goroutine), which would corrupt the shared
	// event heap.
	running bool
}

// BuildCluster compiles each placement node's actors into a program,
// boots one board per node on a shared kernel, and wires cross-node
// bindings through a latency network.
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
		inbox:  map[string]*dtm.Store{},
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
	}
	// Each node's inbox is its local view of the global signal board:
	// arriving messages are pushed into the consumer's __io input symbols
	// immediately (so RAM watchers see them at arrival time), and every
	// consumer release re-latches from the board — reference interpreter
	// semantics, so a host-injected __io value cannot outlive the next
	// release the way it would if delivery were change-triggered only.
	rt := newRoutes(sys)
	for _, node := range c.nodes {
		node := node
		brd := c.Boards[node]
		store := dtm.NewStore(k.Now)
		store.OnChange = func(now uint64, signal string, old, new value.Value) {
			for _, r := range rt.bySignal[signal] {
				if r.to != node {
					continue
				}
				if err := brd.WriteInput(r.ToActor, r.ToPort, new); err != nil {
					brd.fail(err)
				}
			}
		}
		brd.preRelease = func(now uint64, actor string) {
			for _, r := range rt.byActor[actor] {
				if r.from == node {
					continue
				}
				if v := store.Get(r.Signal); v.IsValid() {
					if err := brd.WriteInput(r.ToActor, r.ToPort, v); err != nil {
						brd.fail(err)
					}
				}
			}
		}
		c.inbox[node] = store
		c.Net.Bind(node, store)
	}
	// Producers hand cross-node publishes to the network; intra-node
	// bindings were already delivered by the board itself. The producing
	// node's identity rides along so a TDMA schedule can queue the frame
	// into that node's slots (without a schedule SendFrom is Send).
	for _, node := range c.nodes {
		node := node
		c.Boards[node].OnPublish = func(now uint64, actor, port string, v value.Value) {
			for _, r := range rt.byPort[portKey{actor, port}] {
				if r.to == node {
					continue
				}
				c.Net.SendFrom(node, r.Signal, v, c.inbox[r.to])
			}
		}
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

// route is one signal binding with its producer's and consumer's nodes
// resolved.
type route struct {
	comdes.Binding
	from, to string
}

// portKey identifies an output port.
type portKey struct{ actor, port string }

// routes indexes a system's bindings once, each index keeping the
// sys.Bindings order, so the per-publish, per-release and per-delivery
// hooks visit only the bindings that can match instead of scanning them
// all with a node lookup per binding.
type routes struct {
	byPort   map[portKey][]*route // by producer (FromActor, FromPort)
	byActor  map[string][]*route  // by consumer actor
	bySignal map[string][]*route  // by signal name
}

func newRoutes(sys *comdes.System) routes {
	rt := routes{byPort: map[portKey][]*route{}, byActor: map[string][]*route{}, bySignal: map[string][]*route{}}
	for _, b := range sys.Bindings {
		r := &route{Binding: b, from: sys.NodeOf(b.FromActor), to: sys.NodeOf(b.ToActor)}
		k := portKey{b.FromActor, b.FromPort}
		rt.byPort[k] = append(rt.byPort[k], r)
		rt.byActor[b.ToActor] = append(rt.byActor[b.ToActor], r)
		rt.bySignal[b.Signal] = append(rt.bySignal[b.Signal], r)
	}
	return rt
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
	for _, node := range c.nodes {
		c.Boards[node].sync(t)
	}
}

// Board returns the named node's board, or nil.
func (c *Cluster) Board(node string) *Board { return c.Boards[node] }
