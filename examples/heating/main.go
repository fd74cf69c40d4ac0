// Heating: the paper's flagship scenario — an embedded control application
// (thermostat + modal power scaling + output conditioning + a monitoring
// actor) debugged at the model level against a thermal plant, with a
// model-level breakpoint and step-wise execution.
//
//	go run ./examples/heating
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/models"
)

func main() {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The thermal plant (comfort mode) that every heating session runs
	// against.
	dbg, err := repro.Debug(sys, repro.DebugConfig{
		Environment: repro.StandardEnvironment("heating"),
	})
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}

	if err := dbg.Run(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	if dbg.Session.Paused() {
		fmt.Printf("breakpoint %q hit at t = %.1f ms (room at %.1f °C)\n\n",
			dbg.Session.LastBreak.ID, float64(dbg.Board.Now())/1e6, roomC())
		fmt.Println("== model view at the breakpoint ==")
		fmt.Print(dbg.RenderASCII())
	}

	// Step through the next three model-level events.
	for i := 0; i < 3; i++ {
		if err := dbg.StepEvent(2 * time.Second); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("step %d: highlights %v\n", i+1, dbg.GDM.HighlightedElements())
	}

	// Continue free-running to observe the full limit cycle.
	if err := dbg.Session.ClearBreakpoint("enter-heating"); err != nil {
		log.Fatal(err)
	}
	if err := dbg.Continue(10 * time.Second); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nafter 10 more virtual seconds: room at %.1f °C\n", roomC())
	fmt.Printf("events handled: %d, target cycles: %d (instrumentation: %d)\n",
		dbg.Session.Handled, dbg.Board.Cycles(), dbg.Board.InstrumentationCycles())

	fmt.Println("\n== timing diagram (state machine + power signal) ==")
	fmt.Print(dbg.TimingDiagramASCII(76))

	// One SVG frame of the animated model, for a browser.
	svg := dbg.RenderSVG()
	fmt.Printf("\nSVG frame: %d bytes (render with any browser)\n", len(svg))
}
