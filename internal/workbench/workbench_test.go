package workbench

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metamodel"
	"repro/internal/protocol"
	"repro/internal/target"
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
	a, err := comdes.NewActor("heater", net, comdes.TaskSpec{PeriodNs: 1_000_000, DeadlineNs: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	sys := comdes.NewSystem("heating")
	sys.MustAddActor(a)
	return sys
}

func TestStepNames(t *testing.T) {
	for s := StepInputSelection; s <= StepDebugging; s++ {
		if strings.Contains(s.String(), "Step(") {
			t.Errorf("step %d unnamed", s)
		}
	}
	if !strings.Contains(Step(9).String(), "9") {
		t.Error("unknown step name")
	}
}

// TestFullWorkflow walks the five steps of Fig. 6 end to end on a live
// instrumented target.
func TestFullWorkflow(t *testing.T) {
	sys := heaterSystem(t)
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		t.Fatal(err)
	}

	w := NewWizard()
	if w.Step() != StepInputSelection {
		t.Fatal("wrong start step")
	}

	// Step 2: input selection.
	if err := w.SelectInputs(meta, model); err != nil {
		t.Fatal(err)
	}
	if w.Step() != StepAbstraction {
		t.Fatal("did not advance to abstraction")
	}

	// Step 3: abstraction guide — pair classes.
	if err := w.Pair(core.Rule{MetaClass: "State", Pattern: "Circle"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Pair(core.Rule{MetaClass: "Transition", Pattern: "Arrow", Resolve: core.ResolveRefs("from", "to")}); err != nil {
		t.Fatal(err)
	}
	if err := w.FinishAbstraction(); err != nil {
		t.Fatal(err)
	}
	if w.Step() != StepCommandSetup || w.GDM() == nil {
		t.Fatal("abstraction did not produce a GDM")
	}

	// Step 4: command setting.
	if err := w.FinishCommandSetup(); err == nil {
		t.Error("finishing without bindings should fail")
	}
	if err := w.BindCommand(core.Binding{
		Name: "enter", Event: protocol.EvStateEnter,
		KeyTemplate: "state:$source.$arg1", Reaction: core.ReactHighlightExclusive,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.FinishCommandSetup(); err != nil {
		t.Fatal(err)
	}
	if w.Step() != StepGDMReady {
		t.Fatal("did not reach GDM-ready")
	}

	// Step 5: attach the live target.
	prog, err := codegen.Compile(sys, codegen.Options{
		Instrument: codegen.Instrument{StateEnter: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := target.NewBoard("main", prog, target.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	temp := 15.0
	b.PreLatch = func(now uint64, actor string) {
		if h, err := b.ReadOutput("heater", "heat"); err == nil && h.Bool() {
			temp += 1.5
		} else {
			temp -= 1.0
		}
		_ = b.WriteInput("heater", "temp", value.F(temp))
	}
	if _, err := w.Attach(b); err == nil {
		t.Error("attach without sources should fail")
	}
	s, err := w.Attach(b, engine.NewSerialSource(b.HostPort()))
	if err != nil {
		t.Fatal(err)
	}
	if w.Step() != StepDebugging || w.Session() != s {
		t.Fatal("did not reach debugging")
	}

	// Debug: pump and observe animation.
	for i := 0; i < 100; i++ {
		b.RunFor(1_000_000)
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Handled == 0 {
		t.Fatal("no events in debugging step")
	}
	hl := w.GDM().HighlightedElements()
	if len(hl) != 1 || !strings.HasPrefix(hl[0], "state:") {
		t.Errorf("animation highlights = %v", hl)
	}

	// The step log covers all transitions 1->5.
	if len(w.Log) != 4 {
		t.Fatalf("log = %v", w.Log)
	}
	want := []Step{StepInputSelection, StepAbstraction, StepCommandSetup, StepGDMReady}
	for i, step := range w.Log {
		if step != want[i] {
			t.Errorf("log[%d] = %v, want %v", i, step, want[i])
		}
	}
}

func TestWizardStepEnforcement(t *testing.T) {
	sys := heaterSystem(t)
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWizard()
	// Out-of-order actions fail.
	if err := w.Pair(core.Rule{MetaClass: "State", Pattern: "Circle"}); err == nil {
		t.Error("pairing before inputs should fail")
	}
	if err := w.FinishAbstraction(); err == nil {
		t.Error("finishing before inputs should fail")
	}
	if _, err := w.Attach(nil); err == nil {
		t.Error("attach before ready should fail")
	}
	if err := w.SelectInputs(nil, nil); err == nil {
		t.Error("nil inputs should fail")
	}
	// Model/meta mismatch.
	other := metamodel.NewMetamodel("other", "")
	if err := w.SelectInputs(other, model); err == nil {
		t.Error("mismatched meta should fail")
	}
	if err := w.SelectInputs(meta, model); err != nil {
		t.Fatal(err)
	}
	if err := w.SelectInputs(meta, model); err == nil {
		t.Error("double input selection should fail")
	}
	// Pairing unknown class fails.
	if err := w.Pair(core.Rule{MetaClass: "Ghost", Pattern: "Circle"}); err == nil {
		t.Error("unknown class should fail")
	}
	// UseMapping with nil fails; with good mapping works.
	if err := w.UseMapping(nil); err == nil {
		t.Error("nil mapping should fail")
	}
	if err := w.UseMapping(engine.MinimalCOMDESMapping()); err != nil {
		t.Fatal(err)
	}
	if err := w.FinishAbstraction(); err != nil {
		t.Fatal(err)
	}
	if err := w.Pair(core.Rule{MetaClass: "State", Pattern: "Circle"}); err == nil {
		t.Error("pairing after abstraction should fail")
	}
	if err := w.BindCommand(core.Binding{Name: "bad"}); err == nil {
		t.Error("bad binding should fail")
	}
}
