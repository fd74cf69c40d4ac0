package repro

// The distributed half of the facade: Debug assembles the pipeline for a
// single board; DebugCluster does the same for a placed multi-node system
// — one board per node on a shared virtual clock, cross-node signals on
// the dtm.Network (constant-latency or a time-triggered TDMA bus), and ONE
// model-level session animated by every node's active command interface.

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/metamodel"
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

// ClusterDebugger bundles one assembled distributed debugging setup.
type ClusterDebugger struct {
	Sys     *comdes.System
	Cluster *target.Cluster
	Meta    *metamodel.Metamodel
	Model   *metamodel.Model
	GDM     *core.GDM
	Session *engine.Session
	// Serials maps node name -> that board's host-side command channel.
	// The session polls them in sorted node order (deterministic traces);
	// the first node's channel doubles as the session's RemoteDebug path.
	Serials map[string]*engine.SerialSource
	// Recorder is non-nil once EnableCheckpointing has run.
	Recorder *checkpoint.ClusterRecorder
}

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
func DebugCluster(sys *comdes.System, cfg ClusterDebugConfig) (*ClusterDebugger, error) {
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

	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
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

	session := engine.NewSession(gdm, clusterControl{cl})
	d := &ClusterDebugger{
		Sys: sys, Cluster: cl, Meta: meta, Model: model, GDM: gdm,
		Session: session, Serials: map[string]*engine.SerialSource{},
	}
	for _, node := range cl.Nodes() {
		src := engine.NewSerialSource(cl.Boards[node].HostPort())
		d.Serials[node] = src
		session.AddSource(src)
	}
	return d, nil
}

// Run advances the cluster and the session for dur of virtual time,
// pumping events every millisecond. It returns early when a model-level
// breakpoint pauses the session.
func (d *ClusterDebugger) Run(dur time.Duration) error {
	return d.RunNs(uint64(dur.Nanoseconds()))
}

// RunNs is Run in raw nanoseconds of virtual time.
func (d *ClusterDebugger) RunNs(durNs uint64) error {
	end := d.Cluster.Now() + durNs
	const slice = 1_000_000
	nodes := d.Cluster.Nodes() // one copy per call, not per slice
	for d.Cluster.Now() < end {
		if d.Session.Paused() {
			return nil
		}
		d.Cluster.RunUntil(d.Cluster.Now() + slice)
		if _, err := d.Session.ProcessEvents(d.Cluster.Now()); err != nil {
			return err
		}
		for _, n := range nodes {
			if err := d.Cluster.Boards[n].Err(); err != nil {
				return fmt.Errorf("repro: node %s: %w", n, err)
			}
		}
		if d.Recorder != nil {
			if err := d.Recorder.Observe(d.Cluster.Now()); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnableCheckpointing attaches a whole-cluster checkpoint recorder to the
// session: an initial checkpoint is taken now and further ones every
// interval of virtual time, while per-node environment inputs and wire
// commands are logged. The session gains working RewindTo/ReplayUntil
// over the distributed timeline — rewind below a bus incident and replay
// the exact frame interleaving that produced it. Enable after arming
// standing breakpoints so the initial checkpoint carries them.
func (d *ClusterDebugger) EnableCheckpointing(interval time.Duration) (*checkpoint.ClusterRecorder, error) {
	if d.Recorder != nil {
		return d.Recorder, nil
	}
	rec, err := checkpoint.AttachCluster(d.Cluster, d.Session, d.Serials, uint64(interval.Nanoseconds()))
	if err != nil {
		return nil, err
	}
	d.Recorder = rec
	d.Session.AttachRewinder(rec)
	return rec, nil
}

// Checkpoint captures the complete distributed execution state — every
// board, frames queued and in flight on the bus, the shared clock, the
// session trace and the per-node command channels — as one serializable
// value.
func (d *ClusterDebugger) Checkpoint() (*checkpoint.Checkpoint, error) {
	return checkpoint.CaptureClusterSession(d.Cluster, d.Session, d.Serials)
}

// RestoreCheckpoint rewinds the distributed debugger to a checkpoint taken
// from a cluster built from the same placed system (this process or a
// fresh one).
func (d *ClusterDebugger) RestoreCheckpoint(cp *checkpoint.Checkpoint) error {
	return checkpoint.ApplyClusterSession(cp, d.Cluster, d.Session, d.Serials)
}

// BusStats returns node's TX accounting on the time-triggered bus. ok is
// false when the bus does not know the node — no TDMA schedule, a
// misspelled name, or a slot-less node that never sent.
func (d *ClusterDebugger) BusStats(node string) (dtm.BusStats, bool) {
	return d.Cluster.BusStats(node)
}

// RenderASCII renders the current animated model view for terminals.
func (d *ClusterDebugger) RenderASCII() string { return d.GDM.Scene().ASCII(0, 0) }

// TimingDiagramASCII renders the recorded trace as a timing diagram; on a
// TDMA cluster the "bus" track is the slot-grid lane (value = transmitting
// node, 'x' marks = lost frames).
func (d *ClusterDebugger) TimingDiagramASCII(width int) string {
	return d.Session.Trace.TimingDiagram().ASCII(width)
}
