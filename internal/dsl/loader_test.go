package dsl

import (
	"strings"
	"testing"

	"repro/internal/dtm"
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
	src := wrap("        in x float\n        out y float\n        block gain g { k = 1.0 }\n" +
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
