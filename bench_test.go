package repro

// The benchmark harness: one Benchmark per row of the E1–E12 experiment
// index (the paper has no numeric tables, so these time the
// reproduction's moving parts and the comparative configurations whose
// *shape* the paper claims; `go run ./cmd/experiments` prints the tables
// internal/experiments computes).
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/jtag"
	"repro/internal/plant"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/models"
)

func mustHeating(tb testing.TB) *comdes.System {
	tb.Helper()
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// heatingBoard boots the heating model, compiled with opts, on a
// standalone board driven by the thermal plant.
func heatingBoard(tb testing.TB, opts codegen.Options) *target.Board {
	tb.Helper()
	sys := mustHeating(tb)
	prog, err := codegen.Compile(sys, opts)
	if err != nil {
		tb.Fatal(err)
	}
	brd, err := target.NewBoard("main", prog, target.Config{Bindings: sys.Bindings}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	heatingEnv(brd)
	return brd
}

func heatingEnv(brd *target.Board) {
	room := plant.NewThermal(15)
	var last uint64
	brd.PreLatch = func(now uint64, actor string) {
		if actor != "heater" {
			return
		}
		dt := now - last
		last = now
		power := 0.0
		if p, err := brd.ReadOutput("heater", "power"); err == nil {
			power = p.Float()
		}
		_ = brd.WriteInput("heater", "temp", value.F(room.Step(dt, power)))
		_ = brd.WriteInput("heater", "mode", value.I(2))
	}
}

func mustGDM(b *testing.B, sys *comdes.System) *core.GDM {
	b.Helper()
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.Abstract(model, engine.DefaultCOMDESMapping())
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.BindCOMDES(g); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkE1_Pipeline times the full MDD assembly of Fig. 1/Fig. 2: model
// -> code generation -> board boot -> abstraction -> bound session.
func BenchmarkE1_Pipeline(b *testing.B) {
	sys := mustHeating(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dbg, err := Debug(sys, DebugConfig{})
		if err != nil {
			b.Fatal(err)
		}
		_ = dbg
	}
}

// BenchmarkE2_CommandRoundtrip times one command crossing the interface:
// encode -> wire bytes -> streaming decode.
func BenchmarkE2_CommandRoundtrip(b *testing.B) {
	ev := protocol.Event{Type: protocol.EvStateEnter, Seq: 1, Time: 12345,
		Source: "heater.thermostat", Arg1: "Heating"}
	var dec protocol.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := protocol.EncodeEvent(ev)
		if err != nil {
			b.Fatal(err)
		}
		evs, _ := dec.Feed(wire)
		if len(evs) != 1 {
			b.Fatal("lost event")
		}
	}
}

// BenchmarkE3_EventDispatch times the GDM's event-driven FSM (Fig. 3):
// one command through binding match + reaction application.
func BenchmarkE3_EventDispatch(b *testing.B) {
	g := mustGDM(b, mustHeating(b))
	evOn := protocol.Event{Type: protocol.EvStateEnter, Source: "heater.thermostat", Arg1: "Heating"}
	evOff := protocol.Event{Type: protocol.EvStateEnter, Source: "heater.thermostat", Arg1: "Idle"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := evOn
		if i%2 == 1 {
			ev = evOff
		}
		if _, err := g.HandleEvent(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_Abstraction sweeps the abstraction procedure over model
// size (Fig. 4's "ABSTRACTION FINISHED" action).
func BenchmarkE4_Abstraction(b *testing.B) {
	meta := comdes.Metamodel()
	for _, n := range []int{2, 8, 32} {
		sys, err := models.ChainFSM(n)
		if err != nil {
			b.Fatal(err)
		}
		model, err := comdes.ToModel(sys, meta)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Abstract(model, engine.DefaultCOMDESMapping()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_AnimationRate times live animation: target execution + event
// decode + reaction per virtual millisecond of the heating model.
func BenchmarkE5_AnimationRate(b *testing.B) {
	sys := mustHeating(b)
	g := mustGDM(b, sys)
	prog, err := codegen.Compile(sys, codegen.Options{
		Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	brd, err := target.NewBoard("main", prog, target.Config{Bindings: sys.Bindings}, nil)
	if err != nil {
		b.Fatal(err)
	}
	heatingEnv(brd)
	s := engine.NewSession(g, brd)
	s.AddSource(engine.NewSerialSource(brd.HostPort()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brd.RunFor(1_000_000)
		if _, err := s.ProcessEvents(brd.Now()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Handled)/float64(b.N), "events/ms")
}

// BenchmarkE5_SVGFrame times rendering one animation frame.
func BenchmarkE5_SVGFrame(b *testing.B) {
	g := mustGDM(b, mustHeating(b))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(g.Scene().SVG()) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// BenchmarkE6_WorkflowSteps times Fig. 6 steps 1-4 (input selection
// through GDM creation).
func BenchmarkE6_WorkflowSteps(b *testing.B) {
	sys := mustHeating(b)
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := core.Abstract(model, engine.DefaultCOMDESMapping())
		if err != nil {
			b.Fatal(err)
		}
		if err := engine.BindCOMDES(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_Target times 100 virtual ms of target execution under each
// command-interface configuration — the cycle numbers behind the overhead
// table are asserted in internal/experiments; this measures host cost.
func BenchmarkE7_Target(b *testing.B) {
	configs := []struct {
		name string
		opts codegen.Options
		jtag bool
	}{
		{"clean", codegen.Options{}, false},
		{"active", codegen.Options{Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}}, false},
		{"passive", codegen.Options{}, true},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			brd := heatingBoard(b, cfg.opts)
			var watcher *jtag.Watcher
			if cfg.jtag {
				probe := jtag.NewProbe(brd.TAP)
				probe.Reset()
				watcher = jtag.NewWatcher(probe)
				if err := engine.AutoWatches(watcher, brd.Prog); err != nil {
					b.Fatal(err)
				}
			}
			var dec protocol.Decoder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				brd.RunFor(1_000_000)
				if cfg.jtag {
					watcher.Poll(brd.Now())
				} else {
					dec.Feed(brd.HostPort().Recv())
				}
			}
			b.ReportMetric(float64(brd.Cycles())/float64(b.N), "target-cycles/ms")
		})
	}
}

// TestReleasePathZeroAllocs pins in tier-1 what BenchmarkE7_Target's
// allocs/op shows: once warm, a board advancing 1 ms and the host
// decoding its UART bytes allocate nothing — the cooperative heating
// board clean and instrumented, and the preemptive priorityload board,
// whose releases go through the fixed-priority job queue. Each measured
// run is 500 such steps, so a single allocation in any of them fails the
// test.
func TestReleasePathZeroAllocs(t *testing.T) {
	instrumented := codegen.Options{Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}}
	for _, tc := range []struct {
		name  string
		board func(testing.TB) *target.Board
	}{
		{"clean", func(tb testing.TB) *target.Board { return heatingBoard(tb, codegen.Options{}) }},
		{"instrumented", func(tb testing.TB) *target.Board { return heatingBoard(tb, instrumented) }},
		{"priorityload", func(tb testing.TB) *target.Board { return priorityBoard(tb, instrumented) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			brd := tc.board(t)
			var dec protocol.Decoder
			steps := func() {
				for i := 0; i < 500; i++ {
					brd.RunFor(1_000_000)
					dec.Feed(brd.HostPort().Recv())
				}
			}
			steps() // warm-up: pools, buffers and the decoder reach steady state
			if n := testing.AllocsPerRun(3, steps); n != 0 {
				t.Fatalf("%v allocations per 500 ms of target time, want 0", n)
			}
		})
	}
}

// priorityBoard is the priorityload model on its standard 1 MHz
// fixed-priority board.
func priorityBoard(tb testing.TB, opts codegen.Options) *target.Board {
	tb.Helper()
	sys, err := models.PriorityLoad()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := codegen.Compile(sys, opts)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := StandardBoardConfig("priorityload")
	cfg.Bindings = sys.Bindings
	brd, err := target.NewBoard("main", prog, cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return brd
}

// BenchmarkE8_TraceThroughput times trace append + replay per event.
func BenchmarkE8_TraceThroughput(b *testing.B) {
	ev := protocol.Event{Type: protocol.EvSignal, Source: "heater.power", Value: 100}
	tr := trace.New("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Time = uint64(i)
		tr.Append(ev, uint64(i))
	}
	b.StopTimer()
	rep := trace.NewReplayer(tr, 0)
	b.StartTimer()
	n := 0
	for !rep.Done() {
		n += len(rep.Poll(0))
	}
	if n != b.N {
		b.Fatalf("replayed %d of %d", n, b.N)
	}
}

// BenchmarkE8_TimingDiagram times diagram projection from a trace.
func BenchmarkE8_TimingDiagram(b *testing.B) {
	tr := trace.New("bench")
	for i := 0; i < 2000; i++ {
		tr.Append(protocol.Event{
			Type: protocol.EvStateEnter, Time: uint64(i) * 1000,
			Source: "m", Arg1: []string{"A", "B"}[i%2],
		}, 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.TimingDiagram().Track("m") == nil {
			b.Fatal("no track")
		}
	}
}

// BenchmarkE10_CodeLevelHunt times the GDB-baseline's step-and-inspect
// hunt for a state change (the numerator of the E10 comparison).
func BenchmarkE10_CodeLevelHunt(b *testing.B) {
	sys := mustHeating(b)
	prog, err := codegen.Compile(sys, codegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	u := prog.Unit("heater")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus := codegen.NewMapBus(prog.Symbols)
		if _, err := codegen.Exec(prog, u.Init, bus); err != nil {
			b.Fatal(err)
		}
		_ = bus.StoreSym(u.InputSyms["temp"], value.F(10))
		_ = bus.StoreSym(u.InputSyms["mode"], value.I(2))
		for _, lp := range u.InLatch {
			v, _ := bus.LoadSym(lp.Work)
			_ = bus.StoreSym(lp.Out, v)
		}
		if _, err := codegen.Exec(prog, u.Body, bus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_MultiInstance times abstraction + one animation round over
// a 16-machine token ring.
func BenchmarkE11_MultiInstance(b *testing.B) {
	sys, err := models.TokenRing(16)
	if err != nil {
		b.Fatal(err)
	}
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.Abstract(model, engine.MinimalCOMDESMapping())
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.BindCOMDES(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring := i % 16
		if _, err := g.HandleEvent(protocol.Event{
			Type: protocol.EvStateEnter, Source: fmt.Sprintf("ring%d.node", ring), Arg1: "Hold",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_BreakpointOverhead measures event processing with and
// without armed breakpoints.
func BenchmarkE12_BreakpointOverhead(b *testing.B) {
	for _, nbp := range []int{0, 1, 16} {
		b.Run(fmt.Sprintf("breakpoints=%d", nbp), func(b *testing.B) {
			g := mustGDM(b, mustHeating(b))
			s := engine.NewSession(g, nil)
			src := &benchSource{}
			s.AddSource(src)
			for i := 0; i < nbp; i++ {
				// Never-matching breakpoints: pure matching overhead.
				if err := s.SetBreakpoint(engine.Breakpoint{
					ID: fmt.Sprintf("bp%d", i), Event: protocol.EvTaskStart, Source: "nope",
				}); err != nil {
					b.Fatal(err)
				}
			}
			ev := protocol.Event{Type: protocol.EvStateEnter, Source: "heater.thermostat", Arg1: "Heating"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.next = ev
				if _, err := s.ProcessEvents(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type benchSource struct{ next protocol.Event }

func (f *benchSource) Poll(uint64) []protocol.Event {
	if f.next.Type == protocol.EvInvalid {
		return nil
	}
	ev := f.next
	f.next = protocol.Event{}
	return []protocol.Event{ev}
}

// BenchmarkCompile times the model transformation itself.
func BenchmarkCompile(b *testing.B) {
	sys := mustHeating(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Compile(sys, codegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster times cluster execution of the 32-node placed token
// ring per virtual millisecond. The ring oversubscribes its bus, so TX
// queues grow for as long as it runs: every clusterEpochMs iterations the
// cluster is restored (untimed) to a warm checkpoint, which keeps the cost
// per op independent of b.N.
func BenchmarkCluster(b *testing.B) {
	const warmMs, clusterEpochMs = 10, 50
	sys, err := models.RingCluster(32)
	if err != nil {
		b.Fatal(err)
	}
	bus := &dtm.BusSchedule{GapNs: 50_000, Seed: 2010}
	for _, node := range sys.Nodes() {
		bus.Slots = append(bus.Slots, dtm.BusSlot{Owner: node, LenNs: 100_000})
	}
	cl, err := target.BuildCluster(sys, target.ClusterConfig{
		LatencyNs: 100_000,
		Bus:       bus,
		Board:     target.Config{Baud: 2_000_000},
	})
	if err != nil {
		b.Fatal(err)
	}
	cl.RunUntil(warmMs * 1_000_000)
	warm, err := cl.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%clusterEpochMs == 0 {
			b.StopTimer()
			if err := cl.Restore(warm); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		cl.RunUntil(cl.Now() + 1_000_000)
	}
}

// BenchmarkJTAGReadWord times one debug-port word read (bit-banged TAP).
func BenchmarkJTAGReadWord(b *testing.B) {
	sys := mustHeating(b)
	prog, err := codegen.Compile(sys, codegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	brd, err := target.NewBoard("main", prog, target.Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	probe := jtag.NewProbe(brd.TAP)
	probe.Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		probe.ReadWord(uint32(i) % 64)
	}
}
