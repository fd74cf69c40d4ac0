package repro

// Golden-trace regression: the full event stream of the examples/heating
// scenario (breakpoint -> steps -> continue over the active interface,
// against the thermal plant) is recorded into a checked-in golden file
// and asserted byte-for-byte. Any scheduler, codegen, protocol or engine
// change that reorders, re-times or re-stamps model events fails here
// loudly instead of silently shifting behaviour.
//
// Regenerate after an *intentional* behaviour change with:
//
//	go test -run TestGoldenHeatingTrace -update .

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/plant"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
	"repro/models"
)

// goldenBus is the TDMA schedule of the distributed golden scenario —
// the same parameters cmd/gmdf's cluster path hardcodes, so the in-test
// golden and the CI's cross-process gmdf diffs pin the same timeline.
func goldenBus() *dtm.BusSchedule {
	return &dtm.BusSchedule{
		Slots: []dtm.BusSlot{
			{Owner: "nodeA", LenNs: 100_000},
			{Owner: "nodeB", LenNs: 100_000},
		},
		GapNs: 50_000, JitterNs: 20_000, LossPerMille: 100, Seed: 2010,
	}
}

// distributedDebugger assembles the golden TDMA cluster scenario.
func distributedDebugger(t *testing.T) *ClusterDebugger {
	t.Helper()
	return distributedDebuggerExec(t, target.ExecAuto)
}

// distributedDebuggerExec is distributedDebugger under an explicit
// execution mode.
func distributedDebuggerExec(t *testing.T, exec target.ExecMode) *ClusterDebugger {
	t.Helper()
	sys, err := models.Distributed()
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := DebugCluster(sys, ClusterDebugConfig{
		Cluster: target.ClusterConfig{
			LatencyNs: 100_000,
			Bus:       goldenBus(),
			Board:     target.Config{Baud: 2_000_000},
			Exec:      exec,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dbg
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const (
	goldenTracePath   = "testdata/heating_trace.golden"
	goldenPreemptPath = "testdata/preempt_trace.golden"
	goldenDistPath    = "testdata/distributed_trace.golden"
)

// goldenScenario replays the examples/heating debugging session
// deterministically: virtual time only, fixed plant, fixed breakpoint.
func goldenScenario(t *testing.T) *Debugger {
	t.Helper()
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	room := plant.NewThermal(15)
	var last uint64
	dbg, err := Debug(sys, DebugConfig{
		Environment: func(now uint64, b *target.Board) {
			dt := now - last
			last = now
			power := 0.0
			if p, err := b.ReadOutput("heater", "power"); err == nil {
				power = p.Float()
			}
			_ = b.WriteInput("heater", "temp", value.F(room.Step(dt, power)))
			_ = b.WriteInput("heater", "mode", value.I(2))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.Session.SetBreakpoint(engine.Breakpoint{
		ID: "enter-heating", Event: protocol.EvStateEnter,
		Source: "heater.thermostat", Arg1: "Heating",
	}); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dbg.StepEvent(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := dbg.Session.ClearBreakpoint("enter-heating"); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Continue(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return dbg
}

// formatTrace renders the trace in the shared stable line format.
func formatTrace(d *Debugger) string {
	return d.Session.Trace.FormatStable()
}

// assertGolden compares got against the golden file byte-for-byte,
// rewriting it under -update.
func assertGolden(t *testing.T, path, got string, records int) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records, %d bytes)", path, records, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test -run %s -update .`", err, t.Name())
	}
	if got == string(want) {
		return
	}
	// Byte-for-byte mismatch: report the first diverging line, which
	// names the event that moved.
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("trace diverges at line %d:\n  got:  %s\n  want: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("trace length changed: %d lines, golden has %d", len(gotLines), len(wantLines))
}

func TestGoldenHeatingTrace(t *testing.T) {
	dbg := goldenScenario(t)
	got := formatTrace(dbg)
	if dbg.Session.Trace.Len() < 100 {
		t.Fatalf("suspiciously short trace: %d records", dbg.Session.Trace.Len())
	}
	assertGolden(t, goldenTracePath, got, dbg.Session.Trace.Len())
}

// TestGoldenPreemptTrace pins the preemptive fixed-priority schedule of
// the examples/preemption scenario byte-for-byte: every EvPreempt and
// EvDeadlineMiss instant, every signal publish, every sequence number.
// Any change to slice budgeting, context-switch accounting, ready-queue
// ordering or the miss-at-the-latch rule fails here loudly.
func TestGoldenPreemptTrace(t *testing.T) {
	sys, err := models.PriorityLoad()
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := Debug(sys, DebugConfig{
		Transport: Active,
		Board:     target.Config{CPUHz: 1_000_000, Sched: dtm.FixedPriority, Baud: 2_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Board.Err(); err != nil {
		t.Fatal(err)
	}
	got := formatTrace(dbg)
	if n := dbg.Session.Trace.OfType(protocol.EvPreempt).Len(); n < 10 {
		t.Fatalf("suspiciously few preemptions in the golden run: %d", n)
	}
	assertGolden(t, goldenPreemptPath, got, dbg.Session.Trace.Len())
}

// TestGoldenDistributedTrace pins the TDMA distributed scenario byte for
// byte: every slot departure, release-jitter instant, seeded frame loss,
// cross-node signal arrival and both nodes' event sequence numbers. Any
// change to the slot allocator, the jitter/loss RNG draw order, the
// one-frame-per-slot rule or the cluster event interleaving fails here
// loudly.
func TestGoldenDistributedTrace(t *testing.T) {
	dbg := distributedDebugger(t)
	if err := dbg.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := dbg.Session.Trace.OfType(protocol.EvBusSlot).Len(); n < 20 {
		t.Fatalf("suspiciously few bus departures in the golden run: %d", n)
	}
	if dbg.Session.Trace.OfType(protocol.EvFrameDropped).Len() == 0 {
		t.Fatal("the golden run must exercise seeded frame loss")
	}
	st, ok := dbg.BusStats("nodeA")
	if !ok {
		t.Fatal("nodeA unknown to the bus")
	}
	if st.WorstQueueNs == 0 {
		t.Fatal("the golden run must exercise slot contention (queueing)")
	}
	assertGolden(t, goldenDistPath, dbg.Session.Trace.FormatStable(), dbg.Session.Trace.Len())
}
