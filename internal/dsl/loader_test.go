package dsl

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/dtm"
	"repro/models"
)

// twoNodeSrc is a minimal placed scenario with board and bus overrides.
const twoNodeSrc = `system duo

actor src {
    on n1
    period 10ms
    deadline 5ms
    network sn {
        out v float
        block const one { value = 1.0 }
        wire one.out -> .v
    }
}

actor dst {
    on n2
    period 10ms
    deadline 5ms
    network dn {
        in v float
        out w float
        block gain dbl { k = 2.0 }
        wire .v -> dbl.in
        wire dbl.out -> .w
    }
}

bind link: src.v -> dst.v

board {
    cpu_hz 8000000
    baud 1000000
    sched fixed_priority
}

bus {
    slot n1 200us
    slot n2 150us
    gap 25us
    jitter 10us
    loss 0
    seed 7
}

run 40ms
`

func TestLoadTwoNodeScenario(t *testing.T) {
	sc, diags, err := LoadSource("duo.gmdf", twoNodeSrc)
	if err != nil {
		t.Fatalf("LoadSource: %v\n%s", err, Render("duo.gmdf", twoNodeSrc, diags))
	}
	if !sc.Multi() {
		t.Fatal("placed two-node scenario not recognised as multi-node")
	}
	if got := sc.Sys.Nodes(); len(got) != 2 {
		t.Fatalf("nodes = %v", got)
	}
	if sc.RunNs() != 40_000_000 {
		t.Fatalf("RunNs = %d", sc.RunNs())
	}

	cfg := sc.ClusterConfig()
	if cfg.Board.CPUHz != 8_000_000 || cfg.Board.Baud != 1_000_000 || cfg.Board.Sched != dtm.FixedPriority {
		t.Fatalf("board overlay lost: %+v", cfg.Board)
	}
	bus := cfg.Bus
	if bus == nil || len(bus.Slots) != 2 {
		t.Fatalf("bus = %+v", bus)
	}
	if bus.Slots[0] != (dtm.BusSlot{Owner: "n1", LenNs: 200_000}) || bus.Slots[1] != (dtm.BusSlot{Owner: "n2", LenNs: 150_000}) {
		t.Fatalf("slots = %+v", bus.Slots)
	}
	if bus.GapNs != 25_000 || bus.JitterNs != 10_000 || bus.LossPerMille != 0 || bus.Seed != 7 {
		t.Fatalf("bus params = %+v", bus)
	}
	if err := bus.Validate(); err != nil {
		t.Fatalf("checked bus fails dtm validation: %v", err)
	}
}

// TestLoadDefaultsMatchStandardCluster: a scenario with no board/bus
// declarations gets exactly the standard cluster configuration the CLI
// applies to built-in models.
func TestLoadDefaultsMatchStandardCluster(t *testing.T) {
	src := strings.Join(strings.Split(twoNodeSrc, "board {")[:1], "") // drop board+bus+run
	sc, diags, err := LoadSource("duo.gmdf", src)
	if err != nil {
		t.Fatalf("LoadSource: %v\n%s", err, Render("duo.gmdf", src, diags))
	}
	cfg := sc.ClusterConfig()
	if cfg.Bus == nil || len(cfg.Bus.Slots) != 2 || cfg.Bus.Slots[0].LenNs != 100_000 {
		t.Fatalf("standard bus not applied: %+v", cfg.Bus)
	}
	if cfg.Bus.GapNs != 50_000 || cfg.Bus.JitterNs != 20_000 || cfg.Bus.LossPerMille != 100 || cfg.Bus.Seed != 2010 {
		t.Fatalf("standard bus params drifted: %+v", cfg.Bus)
	}
	if cfg.Board.Baud != 2_000_000 {
		t.Fatalf("standard board baud = %d", cfg.Board.Baud)
	}
}

// TestLoadSourceErrorPath: errors return nil scenario, the full
// diagnostic list, and an error naming the count.
func TestLoadSourceErrorPath(t *testing.T) {
	src := "system x\nactor a { period 10ms }\n"
	sc, diags, err := LoadSource("x.gmdf", src)
	if sc != nil {
		t.Fatal("scenario returned despite errors")
	}
	if err == nil || !strings.Contains(err.Error(), "error(s)") {
		t.Fatalf("err = %v", err)
	}
	if !HasErrors(diags) {
		t.Fatal("no error diagnostics returned")
	}
}

// TestScenarioDrives: drive expressions evaluate over t and now and the
// single-board environment callback writes them.
func TestScenarioDrives(t *testing.T) {
	src := wrap("        in x float\n        out y float\n        block gain g { k = 1.0 }\n"+
		"        wire .x -> g.in\n        wire g.out -> .y\n") +
		"drive a.x = \"2 * t\"\n"
	sc, diags, err := LoadSource("d.gmdf", src)
	if err != nil {
		t.Fatalf("LoadSource: %v\n%s", err, Render("d.gmdf", src, diags))
	}
	env := sc.Environment()
	if env == nil {
		t.Fatal("scenario with a drive has no environment")
	}
	if sc.Multi() {
		t.Fatal("single-board scenario reported as multi")
	}
}

// TestScenarioDebugBuildsBoardOrCluster: Debug is the one board-or-cluster
// decision. A built-in one-node model runs on its standard board (the
// 1 MHz fixed-priority one for priorityload), a placed two-node scenario
// on a cluster of its nodes, and a cluster refuses the passive transport.
func TestScenarioDebugBuildsBoardOrCluster(t *testing.T) {
	sys, err := models.ByName("priorityload")
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := FromSystem(sys).Debug(repro.Active, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dbg.Board == nil || dbg.Cluster != nil || dbg.Board.Policy() != dtm.FixedPriority {
		t.Fatalf("priorityload: board=%v cluster=%v, want one fixed-priority board", dbg.Board, dbg.Cluster)
	}

	sc, diags, err := LoadSource("duo.gmdf", twoNodeSrc)
	if err != nil {
		t.Fatalf("LoadSource: %v\n%s", err, Render("duo.gmdf", twoNodeSrc, diags))
	}
	if prog, err := sc.Program(); prog != nil || err != nil {
		t.Fatalf("multi-node Program() = %v, %v; want nil, nil", prog, err)
	}
	dbg, err = sc.Debug(repro.Active, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dbg.Cluster == nil || strings.Join(dbg.Nodes(), ",") != "n1,n2" {
		t.Fatalf("duo: cluster=%v nodes=%v, want a cluster of n1,n2", dbg.Cluster, dbg.Nodes())
	}
	if _, err := sc.Debug(repro.Passive, nil); err == nil {
		t.Fatal("passive transport on a multi-node scenario accepted")
	}
}

// TestScenarioDrivesReachTheActorsBoard: one environment serves a board
// and a cluster. A drive writes on the board of the actor's node only,
// and on a one-node system on the one board even when the actor is
// placed on a named node.
func TestScenarioDrivesReachTheActorsBoard(t *testing.T) {
	actor := func(name, node string) string {
		return "actor " + name + " {\n    on " + node + "\n    period 10ms\n    deadline 5ms\n" +
			"    network " + name + "n {\n        in x float\n        out y float\n" +
			"        block gain g { k = 1.0 }\n        wire .x -> g.in\n        wire g.out -> .y\n    }\n}\n\n"
	}
	run := func(src string) *repro.Debugger {
		t.Helper()
		sc, diags, err := LoadSource("d.gmdf", src)
		if err != nil {
			t.Fatalf("LoadSource: %v\n%s", err, Render("d.gmdf", src, diags))
		}
		dbg, err := sc.Debug(repro.Active, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := dbg.RunNs(30_000_000); err != nil {
			t.Fatal(err)
		}
		return dbg
	}

	dbg := run("system duo\n\n" + actor("a", "n1") + actor("b", "n2") + "drive b.x = \"3.0\"\n")
	if v, err := dbg.Node("n2").ReadOutput("b", "y"); err != nil || v.Float() != 3 {
		t.Fatalf("n2 b.y = %v, %v; want 3", v, err)
	}
	if v, err := dbg.Node("n1").ReadOutput("a", "y"); err != nil || v.Float() != 0 {
		t.Fatalf("n1 a.y = %v, %v; want 0 (undriven)", v, err)
	}

	dbg = run("system solo\n\n" + actor("a", "n1") + "drive a.x = \"5.0\"\n")
	if dbg.Board == nil {
		t.Fatal("one-node scenario did not build a board")
	}
	if v, err := dbg.Board.ReadOutput("a", "y"); err != nil || v.Float() != 5 {
		t.Fatalf("a.y = %v, %v; want 5", v, err)
	}
}
