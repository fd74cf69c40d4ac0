package codegen

import (
	"fmt"
	"testing"

	"repro/internal/comdes"
	"repro/internal/value"
	"repro/models"
)

func heatingProgram(t testing.TB) (*Program, *comdes.System) {
	t.Helper()
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, sys
}

// TestRunBudgetSlicingEquivalence: executing a body in small cycle slices
// must consume exactly the cycles, produce exactly the bus state, and
// raise exactly the emits of one uninterrupted run — the invariant the
// preemptive board scheduler depends on.
func TestRunBudgetSlicingEquivalence(t *testing.T) {
	prog, _ := heatingProgram(t)
	u := prog.Unit("heater")

	prep := func() *MapBus {
		bus := NewMapBus(prog.Symbols)
		if _, err := Exec(prog, u.Init, bus); err != nil {
			t.Fatal(err)
		}
		_ = bus.StoreSym(u.InputSyms["temp"], value.F(10))
		_ = bus.StoreSym(u.InputSyms["mode"], value.I(2))
		for _, lp := range u.InLatch {
			v, _ := bus.LoadSym(lp.Work)
			_ = bus.StoreSym(lp.Out, v)
		}
		return bus
	}

	oneBus := prep()
	oneShot := NewMachine(prog, u.Body, oneBus)
	oneRes, err := oneShot.Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, budget := range []uint64{1, 7, 64} {
		slicedBus := prep()
		m := NewMachine(prog, u.Body, slicedBus)
		var slices int
		for !m.Done() {
			if _, err := m.RunBudget(budget); err != nil {
				t.Fatal(err)
			}
			slices++
			if slices > 10_000 {
				t.Fatal("budgeted run does not terminate")
			}
		}
		if m.Res.Cycles != oneRes.Cycles {
			t.Errorf("budget %d: cycles = %d, want %d", budget, m.Res.Cycles, oneRes.Cycles)
		}
		if m.Res.Steps != oneRes.Steps {
			t.Errorf("budget %d: steps = %d, want %d", budget, m.Res.Steps, oneRes.Steps)
		}
		if len(m.Res.Emits) != len(oneRes.Emits) {
			t.Errorf("budget %d: %d emits, want %d", budget, len(m.Res.Emits), len(oneRes.Emits))
		}
		if budget == 1 && slices < int(oneRes.Steps) {
			t.Errorf("budget 1 ran %d slices for %d steps — slices too greedy", slices, oneRes.Steps)
		}
		for i := range slicedBus.Vals {
			if !value.Equal(slicedBus.Vals[i], oneBus.Vals[i]) {
				t.Fatalf("budget %d: symbol %s = %v, want %v", budget,
					prog.Symbols.Sym(i).Name, slicedBus.Vals[i], oneBus.Vals[i])
			}
		}
	}
}

// TestRunBudgetOvershootsAtInstructionBoundary: a slice never stops
// mid-instruction; the instruction in flight completes even when it blows
// the budget.
func TestRunBudgetOvershootsAtInstructionBoundary(t *testing.T) {
	prog, _ := heatingProgram(t)
	u := prog.Unit("heater")
	bus := NewMapBus(prog.Symbols)
	m := NewMachine(prog, u.Body, bus)
	res, err := m.RunBudget(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Fatalf("budget 1 executed %d instructions, want exactly 1", res.Steps)
	}
	if res.Cycles < 1 {
		t.Fatal("no cycles charged")
	}
}

// TestMachineResetReuse: a pooled machine reset between releases behaves
// exactly like a fresh allocation and does not allocate for its stack or
// emit buffer on the second run.
func TestMachineResetReuse(t *testing.T) {
	prog, _ := heatingProgram(t)
	u := prog.Unit("heater")
	bus := NewMapBus(prog.Symbols)
	if _, err := Exec(prog, u.Init, bus); err != nil {
		t.Fatal(err)
	}
	// A fixed point of the thermostat (warm room, Idle state): every run
	// takes the identical path, so cycle counts must match exactly.
	latch := func() {
		_ = bus.StoreSym(u.InputSyms["temp"], value.F(25))
		_ = bus.StoreSym(u.InputSyms["mode"], value.I(2))
		for _, lp := range u.InLatch {
			v, _ := bus.LoadSym(lp.Work)
			_ = bus.StoreSym(lp.Out, v)
		}
	}
	latch()
	m := NewMachine(prog, u.Body, bus)
	first, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	firstCycles := first.Cycles
	for i := 0; i < 3; i++ {
		latch()
		m.Reset(u.Body)
		if m.Done() || m.PC != 0 {
			t.Fatal("reset machine not rewound")
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != firstCycles {
			t.Errorf("rerun %d: cycles = %d, want %d", i, res.Cycles, firstCycles)
		}
		if res.BreakPC != -1 {
			t.Errorf("rerun %d: BreakPC = %d", i, res.BreakPC)
		}
	}
}

// TestRunBudgetBoundariesInsideFusedPatterns drives hand-assembled bodies
// exhibiting each superinstruction shape through every possible budget,
// slicing the marked body and a copy with its marks cleared in lockstep.
// Every interior cycle boundary of every shape is hit by some budget, so
// the de-fusion rule (run the plain opcode whenever a boundary could land
// inside) is exhaustively checked against plain instruction-boundary
// preemption — including the division-by-zero error exit inside a fused
// site.
func TestRunBudgetBoundariesInsideFusedPatterns(t *testing.T) {
	p := fuzzProgram(t)
	for name, code := range fusedShapes() {
		fused, plain := marked(code), cleared(code)
		if !hasMarks(fused) {
			t.Fatalf("%s: no superinstruction site was marked", name)
		}
		var total uint64
		for _, in := range code {
			total += in.Op.Cycles()
		}
		for budget := uint64(1); budget <= total+3; budget++ {
			seed := func(b *MapBus) {
				_ = b.StoreSym(0, value.F(2.25))
				_ = b.StoreSym(1, value.I(-4))
			}
			pb, fb := NewMapBus(p.Symbols), NewMapBus(p.Symbols)
			seed(pb)
			seed(fb)
			pm, fm := NewMachine(p, plain, pb), NewMachine(p, fused, fb)
			for slice := 0; ; slice++ {
				if slice > 1000 {
					t.Fatalf("%s budget %d: sliced run does not terminate", name, budget)
				}
				_, perr := pm.RunBudget(budget)
				_, ferr := fm.RunBudget(budget)
				compareRuns(t, fmt.Sprintf("%s budget=%d slice=%d", name, budget, slice), pm, fm, perr, ferr, pb, fb)
				if perr != nil || pm.Done() {
					break
				}
			}
		}
	}
}
