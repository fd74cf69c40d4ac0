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
	"log"
	"time"

	"repro"
	"repro/models"
)

func main() {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		log.Fatal(err)
	}
	dbg, err := repro.Debug(sys, repro.DebugConfig{
		Transport:   repro.Passive, // JTAG instead of RS-232
		Environment: repro.StandardEnvironment("heating"),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("monitored variables (selected from the JTAG fetch list):\n")
	for _, w := range dbg.Watcher.Watches() {
		fmt.Printf("  %-32s @0x%04x  %d bytes  %s\n", w.Symbol, w.Addr, w.Size, w.Kind)
	}

	if err := dbg.Run(5 * time.Second); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nafter 5 virtual seconds of passive debugging:\n")
	fmt.Printf("  commands handled        : %d (all synthesised from RAM watches)\n", dbg.Session.Handled)
	fmt.Printf("  highlighted             : %v\n", dbg.GDM.HighlightedElements())
	fmt.Printf("  target cycles           : %d\n", dbg.Board.Cycles())
	fmt.Printf("  instrumentation cycles  : %d  <- the paper's claim: zero\n", dbg.Board.InstrumentationCycles())
	fmt.Printf("  probe host-side time    : %.2f ms (paid by the debug adapter, not the target)\n",
		float64(dbg.Probe.HostTimeNs())/1e6)

	fmt.Println("\n== animated model ==")
	fmt.Print(dbg.RenderASCII())
}
