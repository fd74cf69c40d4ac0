package repro

// End-to-end smoke test: the one-call facade must assemble the full
// pipeline (model -> codegen -> simulated board -> abstraction -> session)
// and animate the heating model over both command interfaces.

import (
	"testing"
	"time"

	"repro/internal/value"
	"repro/models"
)

func TestSmokeDebugBothTransports(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport Transport
	}{
		{"active-rs232", Active},
		{"passive-jtag", Passive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dbg := heatingDebugger(t, tc.transport)
			if err := dbg.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			if dbg.Session.Handled == 0 {
				t.Fatal("no events reached the session")
			}
			if dbg.RenderASCII() == "" {
				t.Fatal("RenderASCII is empty")
			}
			if dbg.Board.Cycles() == 0 {
				t.Error("target executed nothing")
			}
			if tc.transport == Passive && dbg.Board.InstrumentationCycles() != 0 {
				t.Error("passive transport must leave the code untouched")
			}
			if tc.transport == Active && dbg.Board.InstrumentationCycles() == 0 {
				t.Error("active transport must instrument the code")
			}
		})
	}
}

// TestSmokeManualEnvironment exercises the facade's plant hook and manual
// stimulus path against a running board.
func TestSmokeManualEnvironment(t *testing.T) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := Debug(sys, DebugConfig{
		Environment: StandardEnvironment("heating"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Cold start => the heater must be delivering power by now.
	p, err := dbg.Board.ReadOutput("heater", "power")
	if err != nil {
		t.Fatal(err)
	}
	if p.Float() != 100 {
		t.Errorf("power = %v, want 100 (cold room, comfort mode)", p)
	}
	if err := dbg.WriteInput("heater", "temp", value.F(30)); err != nil {
		t.Fatal(err)
	}
}
