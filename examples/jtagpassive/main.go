// JTAG passive: the paper's "passive communication solution" — debugging
// with *no code modification*. The binary is compiled clean; the IEEE
// 1149.1 probe extracts monitored variables (the state variable "s" of the
// paper's example, plus published outputs) straight from RAM, and the GDM
// animates exactly as in the active session — at zero target CPU cost.
//
//	go run ./examples/jtagpassive
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/models"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jtagpassive:", err)
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
	dbg, err := repro.Debug(sys, repro.DebugConfig{
		Transport:   repro.Passive, // JTAG instead of RS-232
		Environment: repro.StandardEnvironment("heating"),
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "monitored variables (selected from the JTAG fetch list):\n")
	for _, w := range dbg.Watcher.Watches() {
		fmt.Fprintf(out, "  %-32s @0x%04x  %d bytes  %s\n", w.Symbol, w.Addr, w.Size, w.Kind)
	}

	if err := dbg.Run(5 * time.Second); err != nil {
		return err
	}

	fmt.Fprintf(out, "\nafter 5 virtual seconds of passive debugging:\n")
	fmt.Fprintf(out, "  commands handled        : %d (all synthesised from RAM watches)\n", dbg.Session.Handled)
	fmt.Fprintf(out, "  highlighted             : %v\n", dbg.GDM.HighlightedElements())
	fmt.Fprintf(out, "  target cycles           : %d\n", dbg.Board.Cycles())
	fmt.Fprintf(out, "  instrumentation cycles  : %d  <- the paper's claim: zero\n", dbg.Board.InstrumentationCycles())
	fmt.Fprintf(out, "  probe host-side time    : %.2f ms (paid by the debug adapter, not the target)\n",
		float64(dbg.Probe.HostTimeNs())/1e6)

	fmt.Fprintln(out, "\n== animated model ==")
	fmt.Fprint(out, dbg.RenderASCII())
	return nil
}
