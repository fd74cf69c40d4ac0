package repro

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/value"
	"repro/models"
)

// waitGoroutines waits until the goroutine count is back to want. A
// goroutine that signals its exit as its last deferred call may still be
// counted for a moment after the call that stopped it returns.
func waitGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutines running (before: %d)", what, runtime.NumGoroutine()-want, want)
		}
		runtime.Gosched()
	}
}

// longSignalDistributed is the distributed scenario with a cross-node
// signal name longer than a frame's 255-byte string field, so the
// producer fails the first time it announces a bus departure.
func longSignalDistributed(t *testing.T) *comdes.System {
	t.Helper()
	prodNet := comdes.NewNetwork("pnet", nil, []comdes.Port{{Name: "v", Kind: value.Float}})
	prodNet.MustAdd(comdes.MustComponent("const", "one", map[string]value.Value{"value": value.F(1)}))
	prodNet.MustConnect("one", "out", "", "v")
	prod, err := comdes.NewActor("producer", prodNet, comdes.TaskSpec{PeriodNs: 2_000_000, DeadlineNs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	consNet := comdes.NewNetwork("cnet", []comdes.Port{{Name: "v", Kind: value.Float}}, []comdes.Port{{Name: "twice", Kind: value.Float}})
	consNet.MustAdd(comdes.MustComponent("gain", "dbl", map[string]value.Value{"k": value.F(2)}))
	consNet.MustConnect("", "v", "dbl", "in").MustConnect("dbl", "out", "", "twice")
	cons, err := comdes.NewActor("consumer", consNet, comdes.TaskSpec{PeriodNs: 2_000_000, OffsetNs: 1_500_000, DeadlineNs: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	sys := comdes.NewSystem("dist")
	for _, step := range []error{
		sys.AddActor(prod),
		sys.AddActor(cons),
		sys.Bind("v_"+strings.Repeat("x", 300), "producer", "v", "consumer", "v"),
		sys.Place("producer", "nodeA"),
		sys.Place("consumer", "nodeB"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return sys
}

// TestClusterRunNsLeavesNoGoroutines: however RunNs or a replay returns —
// normally, early on a paused session, on a node error, or rewinding and
// replaying through the recorder — the goroutine count is back where it
// was before the call.
func TestClusterRunNsLeavesNoGoroutines(t *testing.T) {
	t.Run("normal", func(t *testing.T) {
		dbg := distributedDebugger(t)
		before := runtime.NumGoroutine()
		if err := dbg.RunNs(20_000_000); err != nil {
			t.Fatal(err)
		}
		if dbg.Cluster.Now() != 20_000_000 {
			t.Fatalf("ran to %d", dbg.Cluster.Now())
		}
		waitGoroutines(t, "RunNs", before)
	})

	t.Run("paused", func(t *testing.T) {
		dbg := distributedDebugger(t)
		if err := dbg.Session.SetBreakpoint(engine.Breakpoint{ID: "bus", Event: protocol.EvBusSlot}); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if err := dbg.RunNs(20_000_000); err != nil {
			t.Fatal(err)
		}
		if !dbg.Session.Paused() || dbg.Cluster.Now() >= 20_000_000 {
			t.Fatalf("breakpoint did not end RunNs early (paused=%v, now=%d)", dbg.Session.Paused(), dbg.Cluster.Now())
		}
		waitGoroutines(t, "paused RunNs", before)
	})

	t.Run("node error", func(t *testing.T) {
		dbg, err := DebugCluster(longSignalDistributed(t), ClusterDebugConfig{Cluster: StandardClusterConfig([]string{"nodeA", "nodeB"}, 0)})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		err = dbg.RunNs(20_000_000)
		if err == nil || !strings.Contains(err.Error(), "node nodeA") {
			t.Fatalf("RunNs error = %v, want a nodeA failure", err)
		}
		waitGoroutines(t, "failed RunNs", before)
	})

	t.Run("rewind", func(t *testing.T) {
		dbg := distributedDebugger(t)
		if _, err := dbg.EnableCheckpointing(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := dbg.RunNs(40_000_000); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if _, err := dbg.Session.RewindTo(13_500_000); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, "RewindTo", before)
		ok, err := dbg.Session.ReplayUntil(func(now uint64) bool { return now >= 40_000_000 }, 40_000_000)
		if err != nil || !ok {
			t.Fatalf("ReplayUntil = %v, %v", ok, err)
		}
		waitGoroutines(t, "ReplayUntil", before)
	})
}

// instructionSource is an event source that, each time the session polls
// it, sends a read and a write instruction to every node. The session
// polls between the slices of one RunNs.
type instructionSource struct {
	dbg   *Debugger
	polls int
}

func (s *instructionSource) Poll(now uint64) []protocol.Event {
	s.polls++
	for _, node := range s.dbg.Cluster.Nodes() {
		src := s.dbg.Serials[node]
		_ = src.Send(protocol.Instruction{Type: protocol.InReadVar, Source: "__busdrops"})
		_ = src.Send(protocol.Instruction{Type: protocol.InWriteVar, Source: "__busdrops", Value: float64(s.polls)})
	}
	return nil
}

// TestClusterHostInstructionsBetweenSlices sends host instructions
// between the slices of a single RunNs, which the boards then service in
// the next slice; the replies must reach the session.
func TestClusterHostInstructionsBetweenSlices(t *testing.T) {
	dbg := distributedDebugger(t)
	src := &instructionSource{dbg: dbg}
	dbg.Session.AddSource(src)
	if err := dbg.RunNs(30_000_000); err != nil {
		t.Fatal(err)
	}
	if src.polls < 20 {
		t.Fatalf("session polled the instruction source %d times, want one per slice", src.polls)
	}
	watches := 0
	for _, rec := range dbg.Session.Trace.Records {
		if rec.Event.Type == protocol.EvWatch && rec.Event.Source == "__busdrops" {
			watches++
		}
	}
	if watches == 0 {
		t.Fatal("no node acknowledged the host's instructions")
	}
}

// TestBoardRunNsReturnsNodeError: a board is a one-node target, so its
// RunNs fails with the node's first aborted release just as a cluster's
// does — here a division block fed its zero default.
func TestBoardRunNsReturnsNodeError(t *testing.T) {
	inv, err := comdes.NewBasicFB("inv", []comdes.Port{{Name: "in", Kind: value.Float}}, []comdes.Port{{Name: "out", Kind: value.Float}},
		nil, map[string]string{"out": "1 / in"})
	if err != nil {
		t.Fatal(err)
	}
	net := comdes.NewNetwork("dnet", []comdes.Port{{Name: "x", Kind: value.Float}}, []comdes.Port{{Name: "y", Kind: value.Float}})
	net.MustAdd(inv).MustConnect("", "x", "inv", "in").MustConnect("inv", "out", "", "y")
	div, err := comdes.NewActor("div", net, comdes.TaskSpec{PeriodNs: 2_000_000, DeadlineNs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	sys := comdes.NewSystem("divzero")
	if err := sys.AddActor(div); err != nil {
		t.Fatal(err)
	}
	dbg, err := Debug(sys, DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	err = dbg.RunNs(20_000_000)
	if err == nil || !strings.Contains(err.Error(), "node main") || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("RunNs error = %v, want a division by zero on node main", err)
	}
	if now := dbg.Board.Now(); now >= 20_000_000 {
		t.Fatalf("RunNs ran on to %d past the failed release", now)
	}
}

// TestClusterMissBreakOffRemoteNode: a deadline-miss breakpoint follows
// the same node rule as a state breakpoint. It arms on the target only for
// an actor on the node the session's remote channel reaches; an actor on
// another node stays host-side and still pauses the session at its first
// miss.
func TestClusterMissBreakOffRemoteNode(t *testing.T) {
	for _, tc := range []struct {
		actor    string
		onTarget bool
	}{
		{"ring0", true},
		{"ring1", false},
		{"ring2", false},
	} {
		t.Run(tc.actor, func(t *testing.T) {
			sys, err := models.RingCluster(3)
			if err != nil {
				t.Fatal(err)
			}
			// A 100 kHz preemptive core: every release overruns its 500 µs
			// deadline.
			cfg := StandardClusterConfig(sys.Nodes(), 0)
			cfg.Board.Sched, cfg.Board.CPUHz = dtm.FixedPriority, 100_000
			dbg, err := DebugCluster(sys, ClusterDebugConfig{Cluster: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if err := dbg.BreakOnDeadlineMiss("m", tc.actor); err != nil {
				t.Fatal(err)
			}
			if got := dbg.Session.Breakpoints()[0].OnTarget(); got != tc.onTarget {
				t.Fatalf("OnTarget() = %v, want %v", got, tc.onTarget)
			}
			if err := dbg.RunNs(600_000_000); err != nil {
				t.Fatal(err)
			}
			if !dbg.Session.Paused() || dbg.Session.LastBreak == nil || dbg.Session.LastBreak.ID != "m" {
				t.Fatalf("miss breakpoint on %s never paused the session (now %d)", tc.actor, dbg.Now())
			}
			misses := 0
			for _, rec := range dbg.Session.Trace.Records {
				if rec.Event.Type == protocol.EvDeadlineMiss && rec.Event.Source == tc.actor {
					misses++
				}
			}
			if misses != 1 {
				t.Fatalf("session recorded %d misses of %s before pausing, want 1", misses, tc.actor)
			}
		})
	}
}

// TestClusterStateBreakOffRemoteNode: the session arms on-target
// conditions through one node's command channel, so a state breakpoint
// on a machine placed on another node must stay host-side — and still
// pause the session at the state entry. A machine on the remote node
// keeps its on-target condition.
func TestClusterStateBreakOffRemoteNode(t *testing.T) {
	build := func() *Debugger {
		sys, err := models.RingCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		dbg, err := DebugCluster(sys, ClusterDebugConfig{Cluster: StandardClusterConfig(sys.Nodes(), 0)})
		if err != nil {
			t.Fatal(err)
		}
		return dbg
	}
	for _, tc := range []struct {
		machine  string
		onTarget bool
	}{
		{"ring0.node", true},
		{"ring1.node", false},
		{"ring2.node", false},
	} {
		t.Run(tc.machine, func(t *testing.T) {
			dbg := build()
			if err := dbg.BreakOnState("b", tc.machine, "Hold"); err != nil {
				t.Fatal(err)
			}
			if got := dbg.Session.Breakpoints()[0].OnTarget(); got != tc.onTarget {
				t.Fatalf("OnTarget() = %v, want %v", got, tc.onTarget)
			}
			if err := dbg.RunNs(200_000_000); err != nil {
				t.Fatal(err)
			}
			if !dbg.Session.Paused() || dbg.Session.LastBreak == nil || dbg.Session.LastBreak.ID != "b" {
				t.Fatalf("breakpoint on %s never paused the session (now %d)", tc.machine, dbg.Now())
			}
			holds := 0
			for _, rec := range dbg.Session.Trace.Records {
				if rec.Event.Type == protocol.EvStateEnter && rec.Event.Source == tc.machine && rec.Event.Arg1 == "Hold" {
					holds++
				}
			}
			if holds > 1 {
				t.Fatalf("session ran through %d entries of %s.Hold before pausing", holds, tc.machine)
			}
		})
	}
}

// TestDebugRefusesPlacedMultiNode: Debug builds one board, so a placed
// multi-node system is an error naming DebugCluster rather than a board
// that ignores its placement and bus, just as DebugCluster refuses a
// one-node system.
func TestDebugRefusesPlacedMultiNode(t *testing.T) {
	dist, err := models.Distributed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Debug(dist, DebugConfig{}); err == nil || !strings.Contains(err.Error(), "DebugCluster") {
		t.Fatalf("Debug(dist) = %v, want an error pointing at DebugCluster", err)
	}
	ring, err := models.TokenRing(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DebugCluster(ring, ClusterDebugConfig{}); err == nil || !strings.Contains(err.Error(), "use Debug") {
		t.Fatalf("DebugCluster(ring) = %v, want an error pointing at Debug", err)
	}
}
