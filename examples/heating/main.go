// Heating: the paper's flagship scenario — an embedded control application
// (thermostat + modal power scaling + output conditioning + a monitoring
// actor) debugged at the model level against a thermal plant, with a
// model-level breakpoint and step-wise execution.
//
//	go run ./examples/heating
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/models"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "heating:", err)
		os.Exit(1)
	}
}

// run is the whole example behind an error return, so a test pins its
// output without forking.
func run(out io.Writer) error {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		return err
	}

	// The thermal plant (comfort mode) that every heating session runs
	// against.
	dbg, err := repro.Debug(sys, repro.DebugConfig{
		Environment: repro.StandardEnvironment("heating"),
	})
	if err != nil {
		return err
	}
	// The room temperature is the heater's temp input in board RAM: the
	// value the plant last wrote.
	tempSym := dbg.Prog.Unit("heater").InputSyms["temp"]
	roomC := func() float64 {
		v, _ := dbg.Board.LoadSym(tempSym)
		return v.Float()
	}

	// Model-level breakpoint: pause the *target* when the thermostat
	// enters Heating.
	if err := dbg.Session.SetBreakpoint(engine.Breakpoint{
		ID:     "enter-heating",
		Event:  protocol.EvStateEnter,
		Source: "heater.thermostat",
		Arg1:   "Heating",
	}); err != nil {
		return err
	}

	if err := dbg.Run(5 * time.Second); err != nil {
		return err
	}
	if dbg.Session.Paused() {
		fmt.Fprintf(out, "breakpoint %q hit at t = %.1f ms (room at %.1f °C)\n\n",
			dbg.Session.LastBreak.ID, float64(dbg.Board.Now())/1e6, roomC())
		fmt.Fprintln(out, "== model view at the breakpoint ==")
		fmt.Fprint(out, dbg.RenderASCII())
	}

	// Step through the next three model-level events.
	for i := 0; i < 3; i++ {
		if err := dbg.StepEvent(2 * time.Second); err != nil {
			return err
		}
		fmt.Fprintf(out, "step %d: highlights %v\n", i+1, dbg.GDM.HighlightedElements())
	}

	// Continue free-running to observe the full limit cycle.
	if err := dbg.Session.ClearBreakpoint("enter-heating"); err != nil {
		return err
	}
	if err := dbg.Continue(10 * time.Second); err != nil {
		return err
	}

	fmt.Fprintf(out, "\nafter 10 more virtual seconds: room at %.1f °C\n", roomC())
	fmt.Fprintf(out, "events handled: %d, target cycles: %d (instrumentation: %d)\n",
		dbg.Session.Handled, dbg.Board.Cycles(), dbg.Board.InstrumentationCycles())

	fmt.Fprintln(out, "\n== timing diagram (state machine + power signal) ==")
	fmt.Fprint(out, dbg.TimingDiagramASCII(76))

	// One SVG frame of the animated model, for a browser.
	svg := dbg.RenderSVG()
	fmt.Fprintf(out, "\nSVG frame: %d bytes (render with any browser)\n", len(svg))
	return nil
}
