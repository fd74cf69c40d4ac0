package repro

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/value"
	"repro/models"
)

func heatingDebugger(t *testing.T, transport Transport) *Debugger {
	t.Helper()
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := Debug(sys, DebugConfig{
		Transport:   transport,
		Environment: StandardEnvironment("heating"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return dbg
}

func TestFacadeActiveSession(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	if err := dbg.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dbg.Session.Handled == 0 {
		t.Fatal("no events")
	}
	hl := dbg.GDM.HighlightedElements()
	found := false
	for _, id := range hl {
		if strings.HasPrefix(id, "state:heater.thermostat.") {
			found = true
		}
	}
	if !found {
		t.Errorf("no thermostat state highlighted: %v", hl)
	}
	if !strings.Contains(dbg.RenderSVG(), "<svg") {
		t.Error("SVG broken")
	}
	if dbg.RenderASCII() == "" {
		t.Error("ASCII broken")
	}
	if !strings.Contains(dbg.TimingDiagramASCII(60), "heater") {
		t.Error("diagram broken")
	}
}

func TestFacadePassiveSession(t *testing.T) {
	dbg := heatingDebugger(t, Passive)
	if dbg.Probe == nil || dbg.Watcher == nil {
		t.Fatal("passive plumbing missing")
	}
	if err := dbg.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dbg.Session.Handled == 0 {
		t.Fatal("no passive events")
	}
	if dbg.Board.InstrumentationCycles() != 0 {
		t.Error("passive must not instrument")
	}
}

func TestFacadeBreakpointAndStep(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	if err := dbg.Session.SetBreakpoint(engine.Breakpoint{
		ID: "bp", Event: protocol.EvStateEnter, Source: "heater.thermostat", Arg1: "Heating",
	}); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() {
		t.Fatal("breakpoint did not pause")
	}
	before := dbg.Session.Handled
	if err := dbg.StepEvent(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dbg.Session.Handled != before+1 {
		t.Errorf("step handled %d events", dbg.Session.Handled-before)
	}
	if err := dbg.Session.ClearBreakpoint("bp"); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Continue(time.Second); err != nil {
		t.Fatal(err)
	}
	if dbg.Session.Paused() {
		t.Error("continue did not resume")
	}
}

// TestOnTargetStepEndsAtBreakpointHit runs the CLI's on-target flow:
// break on a state entry, step, clear, continue. The still-true condition
// re-trips during the step, and that hit ends the step, so after Continue
// the session runs out its whole budget instead of halting again at the
// next model event.
func TestOnTargetStepEndsAtBreakpointHit(t *testing.T) {
	const budget = 500_000_000
	dbg := heatingDebugger(t, Active)
	if err := dbg.BreakOnState("bp", "heater.thermostat", "Heating"); err != nil {
		t.Fatal(err)
	}
	if err := dbg.RunNs(budget); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() {
		t.Fatal("breakpoint did not pause")
	}
	if err := dbg.StepOnTarget(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Session.ClearBreakpoint("bp"); err != nil {
		t.Fatal(err)
	}
	dbg.Session.Continue()
	if err := dbg.RunNs(budget - dbg.Now()); err != nil {
		t.Fatal(err)
	}
	if dbg.Session.Paused() || dbg.Board.Halted() {
		t.Fatalf("halted again after continue at %d ns", dbg.Now())
	}
	if dbg.Now() != budget {
		t.Fatalf("run ended at %d ns, want the full %d ns budget", dbg.Now(), budget)
	}
}

// TestBreakOnStateRejectsUnknownState: a breakpoint on a state or machine
// the model does not have is refused on either transport, instead of
// arming a host-side filter that can never fire.
func TestBreakOnStateRejectsUnknownState(t *testing.T) {
	for tr, transport := range map[string]Transport{"active": Active, "passive": Passive} {
		dbg := heatingDebugger(t, transport)
		for _, c := range [][2]string{
			{"heater.thermostat", "Heatin"},
			{"heater.nosuch", "Heating"},
			{"heater", "Heating"},
		} {
			if err := dbg.BreakOnState("bp", c[0], c[1]); err == nil {
				t.Errorf("%s: BreakOnState(%s, %s) armed a breakpoint", tr, c[0], c[1])
			}
		}
		if n := len(dbg.Session.Breakpoints()); n != 0 {
			t.Errorf("%s: %d breakpoints armed after refusals", tr, n)
		}
	}
}

func TestFacadeValidation(t *testing.T) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Debug(sys, DebugConfig{Transport: Transport(99)}); err == nil {
		t.Error("bad transport should fail")
	}
	if err := heatingDebugger(t, Active).WriteInput("heater", "temp", value.F(20)); err != nil {
		t.Error(err)
	}
}
