// Command comdesgen is the code generator of the MDD pipeline (Fig. 1):
// it transforms a COMDES design model into executable target code and
// prints the generated pseudo-C listing, the symbol table (the JTAG
// monitored-variable candidates) and, optionally, the IR disassembly.
//
//	go run ./cmd/comdesgen -model heating -instrument -disasm
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/codegen"
	"repro/models"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "comdesgen:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind an error return, so tests drive it end to
// end without forking.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("comdesgen", flag.ContinueOnError)
	model := fs.String("model", "heating", "built-in model ("+strings.Join(models.Names(), "|")+") or path to a COMDES model XML file")
	instrument := fs.Bool("instrument", false, "weave the active command interface (states, transitions, signals)")
	disasm := fs.Bool("disasm", false, "print IR disassembly per task")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := models.Load(*model)
	if err != nil {
		return err
	}
	opts := codegen.Options{}
	if *instrument {
		opts.Instrument = codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}
	}
	prog, err := codegen.Compile(sys, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "// program %q: %d task(s), %d symbols, %d bytes RAM, instrumented=%v\n\n",
		prog.Name, len(prog.Units), prog.Symbols.Len(), prog.Symbols.RAMSize(), prog.Instrumented)
	for _, line := range prog.Source {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintln(out, "\n// ---- symbol table (JTAG monitored-variable candidates) ----")
	for _, s := range prog.Symbols.All() {
		elem := ""
		if s.Element != "" {
			elem = "  // " + s.Element
		}
		fmt.Fprintf(out, "0x%04x  %-6s %-40s%s\n", s.Addr, s.Kind, s.Name, elem)
	}
	if *disasm {
		for _, u := range prog.Units {
			fmt.Fprintf(out, "\n// ---- %s: init ----\n", u.Name)
			for _, l := range prog.Disassemble(u.Init) {
				fmt.Fprintln(out, l)
			}
			fmt.Fprintf(out, "\n// ---- %s: body (period %d ns, deadline %d ns) ----\n", u.Name, u.Period, u.Deadline)
			for _, l := range prog.Disassemble(u.Body) {
				fmt.Fprintln(out, l)
			}
		}
	}
	return nil
}
