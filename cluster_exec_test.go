package repro

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comdes"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
)

// waitGoroutines waits until the goroutine count is back to want. Workers
// signal their exit as their last deferred call, so they may still be
// counted for a moment after the call that stopped them returns.
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

// TestClusterRunNsLeavesNoGoroutines: the parallel executor's workers
// (ExecParallel, asked for explicitly: the default is serial) live for
// one outer host call. However RunNs or a replay returns —
// normally, early on a paused session, on a node error, or rewinding and
// replaying through the recorder — the goroutine count is back where it
// was before the call.
func TestClusterRunNsLeavesNoGoroutines(t *testing.T) {
	t.Run("normal", func(t *testing.T) {
		dbg := distributedDebuggerExec(t, target.ExecParallel)
		if !dbg.Cluster.Parallel() {
			t.Fatal("the TDMA scenario should run on the parallel executor")
		}
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
		dbg := distributedDebuggerExec(t, target.ExecParallel)
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
		dbg, err := DebugCluster(longSignalDistributed(t), ClusterDebugConfig{Cluster: StandardClusterConfig([]string{"nodeA", "nodeB"}, target.ExecParallel)})
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
		dbg := distributedDebuggerExec(t, target.ExecParallel)
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
// polls between the slices of one RunNs, while the executor's workers are
// parked at a barrier.
type instructionSource struct {
	dbg   *ClusterDebugger
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
// between the slices of a single RunNs, which the workers started for
// that call (ExecParallel) then service in the next slice. Run under
// -race it checks that the barrier orders the host's sends before the
// workers' reads; the replies must also reach the session.
func TestClusterHostInstructionsBetweenSlices(t *testing.T) {
	dbg := distributedDebuggerExec(t, target.ExecParallel)
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
