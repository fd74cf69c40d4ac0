package repro

// The distributed half of the facade: Debug assembles the pipeline for a
// single board; DebugCluster does the same for a placed multi-node system
// — one board per node on a shared virtual clock, cross-node signals on
// the dtm.Network (constant-latency or a time-triggered TDMA bus), and ONE
// model-level session animated by every node's active command interface.
// Both return a *Debugger: a board is a one-node target.

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/internal/target"
)

// ClusterDebugConfig parameterises DebugCluster.
type ClusterDebugConfig struct {
	// Cluster carries the target-side configuration: network latency, the
	// optional TDMA bus schedule, per-node board parameters.
	Cluster target.ClusterConfig
	// Instrument overrides the active instrumentation points woven into
	// every node's program (default: state entries, transitions, signals).
	Instrument *codegen.Instrument
	// Environment, when set, runs at every task release of every node (the
	// plant hook, with the node name for placement-aware stimuli).
	Environment func(now uint64, node string, b *target.Board)
}

// ClusterDebugger is the distributed debugger's former name.
//
// Deprecated: DebugCluster returns a *Debugger.
type ClusterDebugger = Debugger

// clusterControl adapts a whole cluster to engine.TargetControl: the
// session's pause button halts every node (a global debug freeze on the
// shared virtual clock).
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

// DebugCluster assembles the full GMDF pipeline for a placed multi-node
// COMDES system.
func DebugCluster(sys *comdes.System, cfg ClusterDebugConfig) (*Debugger, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if len(sys.Nodes()) < 2 {
		return nil, fmt.Errorf("repro: DebugCluster needs a placed multi-node system (got %d nodes); use Debug", len(sys.Nodes()))
	}
	ccfg := cfg.Cluster
	if cfg.Instrument != nil {
		ccfg.Compile.Instrument = *cfg.Instrument
	} else {
		ccfg.Compile.Instrument = codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}
	}
	cl, err := target.BuildCluster(sys, ccfg)
	if err != nil {
		return nil, err
	}
	if cfg.Environment != nil {
		env := cfg.Environment
		for _, node := range cl.Nodes() {
			node := node
			brd := cl.Boards[node]
			brd.PreLatch = func(now uint64, actor string) { env(now, node, brd) }
		}
	}
	d, err := assemble(sys, nil, cl, clusterControl{cl})
	if err != nil {
		return nil, err
	}
	d.Cluster = cl
	for _, node := range cl.Nodes() {
		d.addSerial(cl.Boards[node])
	}
	return d, nil
}

// BusStats returns node's TX accounting on the time-triggered bus. ok is
// false when the bus does not know the node — a single board, no TDMA
// schedule, a misspelled name, or a slot-less node that never sent.
func (d *Debugger) BusStats(node string) (dtm.BusStats, bool) {
	if d.Cluster == nil {
		return dtm.BusStats{}, false
	}
	return d.Cluster.BusStats(node)
}
