package baseline

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/value"
)

func heaterSystem(t testing.TB) *comdes.System {
	fb, err := comdes.NewStateMachineFB(comdes.SMConfig{
		Name:    "ctrl",
		Inputs:  []comdes.Port{{Name: "temp", Kind: value.Float}},
		Outputs: []comdes.Port{{Name: "heat", Kind: value.Bool}},
		Initial: "Idle",
		States: []comdes.SMStateDef{
			{Name: "Idle", Entry: map[string]string{"heat": "false"}},
			{Name: "Heating", Entry: map[string]string{"heat": "true"}},
		},
		Transitions: []comdes.SMTransitionDef{
			{Name: "cold", From: "Idle", To: "Heating", Guard: "temp < 19"},
			{Name: "warm", From: "Heating", To: "Idle", Guard: "temp > 21"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := comdes.NewNetwork("n",
		[]comdes.Port{{Name: "temp", Kind: value.Float}},
		[]comdes.Port{{Name: "heat", Kind: value.Bool}})
	net.MustAdd(fb)
	net.MustConnect("", "temp", "ctrl", "temp").MustConnect("ctrl", "heat", "", "heat")
	a, err := comdes.NewActor("heater", net, comdes.TaskSpec{PeriodNs: 1000, DeadlineNs: 500})
	if err != nil {
		t.Fatal(err)
	}
	sys := comdes.NewSystem("heating")
	sys.MustAddActor(a)
	return sys
}

func compiled(t testing.TB) (*codegen.Program, *codegen.MapBus) {
	t.Helper()
	p, err := codegen.Compile(heaterSystem(t), codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bus := codegen.NewMapBus(p.Symbols)
	u := p.Unit("heater")
	if _, err := codegen.Exec(p, u.Init, bus); err != nil {
		t.Fatal(err)
	}
	return p, bus
}

func setInput(t testing.TB, p *codegen.Program, bus codegen.Bus, temp float64) {
	t.Helper()
	u := p.Unit("heater")
	if err := bus.StoreSym(u.InputSyms["temp"], value.F(temp)); err != nil {
		t.Fatal(err)
	}
	for _, lp := range u.InLatch {
		v, _ := bus.LoadSym(lp.Work)
		if err := bus.StoreSym(lp.Out, v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCodeDebuggerRunUnit runs a cold cycle to completion and inspects
// the state variable it left behind, as E1 does.
func TestCodeDebuggerRunUnit(t *testing.T) {
	p, bus := compiled(t)
	u := p.Unit("heater")
	d := NewCodeDebugger(p, bus)

	setInput(t, p, bus, 10) // cold
	if err := d.RunUnit(u); err != nil {
		t.Fatal(err)
	}
	st, err := d.Inspect("heater.ctrl.__state")
	if err != nil {
		t.Fatal(err)
	}
	if st.Int() != 1 {
		t.Errorf("state after run = %v, want Heating (1)", st)
	}
	if _, err := d.Inspect("ghost"); err == nil {
		t.Error("unknown symbol should fail")
	}
	if d.InstructionsStepped == 0 {
		t.Error("instructions not counted")
	}
	if d.Inspections != 2 {
		t.Errorf("inspections = %d, want 2", d.Inspections)
	}
}

func TestCodeDebuggerStepInstruction(t *testing.T) {
	p, bus := compiled(t)
	u := p.Unit("heater")
	d := NewCodeDebugger(p, bus)
	setInput(t, p, bus, 25)
	m := codegen.NewMachine(p, u.Body, bus)
	steps := 0
	for {
		more, err := d.StepInstruction(m)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if !more {
			break
		}
		if steps > 10000 {
			t.Fatal("runaway")
		}
	}
	if uint64(steps) != d.InstructionsStepped {
		t.Error("step accounting wrong")
	}
	if !m.Done() {
		t.Error("machine not done after the last step")
	}
}

// TestStepsToBugComparison quantifies the E10 claim: localizing "the
// machine entered Heating" costs the model debugger one event, while the
// code-level debugger steps many instructions and inspects variables.
func TestStepsToBugComparison(t *testing.T) {
	p, bus := compiled(t)
	u := p.Unit("heater")
	d := NewCodeDebugger(p, bus)
	setInput(t, p, bus, 10)
	m := codegen.NewMachine(p, u.Body, bus)
	// GDB-style hunt: step and re-inspect state until it changes.
	for {
		st, err := d.Inspect("heater.ctrl.__state")
		if err != nil {
			t.Fatal(err)
		}
		if st.Int() == 1 {
			break
		}
		more, err := d.StepInstruction(m)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			t.Fatal("body finished without state change")
		}
	}
	codeEffort := d.InstructionsStepped + d.Inspections
	const modelEffort = 1 // one EvStateEnter event announces the same fact
	if codeEffort < 10*modelEffort {
		t.Errorf("expected code-level effort (%d) to dwarf model-level (%d)", codeEffort, modelEffort)
	}
}
