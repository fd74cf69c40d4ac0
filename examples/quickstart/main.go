// Quickstart: debug a traffic-light state machine at the model level.
//
// The example builds the smallest COMDES model (one actor, one state
// machine), lets repro.Debug assemble the whole GMDF pipeline — code
// generation, simulated target, abstraction, command bindings, runtime
// engine — and animates the model while the generated code runs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/target"
	"repro/internal/value"
	"repro/models"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run is the whole example behind an error return, so a test pins its
// output without forking.
func run(out io.Writer) error {
	sys, err := models.TrafficLight()
	if err != nil {
		return err
	}

	dbg, err := repro.Debug(sys, repro.DebugConfig{
		// The environment supplies the sawtooth clock the light cycles on.
		Environment: func(now uint64, b *target.Board) {
			t := math.Mod(float64(now)/1e9, 12)
			_ = b.WriteInput("signal", "t", value.F(t))
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "== initial model view (Red is the initial state) ==")
	fmt.Fprint(out, dbg.RenderASCII())

	if err := dbg.Run(9 * time.Second); err != nil { // virtual seconds
		return err
	}

	fmt.Fprintln(out, "== after 9 virtual seconds ==")
	fmt.Fprint(out, dbg.RenderASCII())
	fmt.Fprintf(out, "\nhighlighted: %v\n", dbg.GDM.HighlightedElements())
	fmt.Fprintf(out, "commands handled: %d, reactions: %d\n", dbg.Session.Handled, dbg.GDM.Reactions)

	fmt.Fprintln(out, "\n== timing diagram of the recorded trace ==")
	fmt.Fprint(out, dbg.TimingDiagramASCII(72))
	return nil
}
