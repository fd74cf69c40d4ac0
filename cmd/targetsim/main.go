// Command targetsim runs generated code on the simulated embedded board
// and prints the command stream a GDM host would receive over the active
// RS-232 interface — useful for inspecting what the instrumented target
// actually says.
//
//	go run ./cmd/targetsim -model heating -ms 200
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/models"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "targetsim:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind an error return, so tests drive it end to
// end without forking.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("targetsim", flag.ContinueOnError)
	model := fs.String("model", "heating", "built-in one-board model ("+strings.Join(models.Names(), "|")+"; a multi-node model is refused)")
	ms := fs.Uint64("ms", 200, "virtual milliseconds to run")
	maxPrint := fs.Int("n", 40, "max events to print")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := models.ByName(*model)
	if err != nil {
		return err
	}
	// The session is only the assembly here: the loop below drives the
	// board itself and prints the decoded stream instead of animating it.
	dbg, err := repro.Debug(sys, repro.DebugConfig{
		Board:       repro.StandardBoardConfig(*model),
		Environment: repro.StandardEnvironment(*model),
	})
	if err != nil {
		return err
	}
	b, host := dbg.Board, dbg.Serials["main"]
	printed := 0
	for t := uint64(0); t < *ms*1_000_000; t += 1_000_000 {
		b.RunFor(1_000_000)
		for _, ev := range host.Poll(b.Now()) {
			if printed < *maxPrint {
				fmt.Fprintln(out, ev)
			}
			printed++
		}
	}
	fmt.Fprintf(out, "\n%d events total; target: %d cycles (%d instrumentation), %d UART bytes, %d decode errors\n",
		printed, b.Cycles(), b.InstrumentationCycles(), b.Link.PortA().Stats().Bytes, host.DecodeErrors())
	return nil
}
