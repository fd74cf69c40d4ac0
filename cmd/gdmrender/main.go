// Command gdmrender renders a saved GDM file (the "initial GDM file" of
// Fig. 6 step 4, JSON) to SVG or ASCII.
//
//	go run ./cmd/gdmrender -in model.gdm -format svg > model.svg
//	go run ./cmd/gdmrender -demo heating -format ascii
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/models"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdmrender:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind an error return, so tests drive it end to
// end without forking.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gdmrender", flag.ContinueOnError)
	in := fs.String("in", "", "GDM JSON file ('-' for stdin)")
	demo := fs.String("demo", "", "render a built-in model instead ("+strings.Join(models.Names(), "|")+")")
	format := fs.String("format", "ascii", "output format: ascii|svg|json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *core.GDM
	var err error
	switch {
	case *demo != "":
		var sys *comdes.System
		if sys, err = models.ByName(*demo); err == nil {
			g, err = buildGDM(sys)
		}
	case *in == "-":
		g, err = readGDM(os.Stdin)
	case *in != "":
		var f *os.File
		f, err = os.Open(*in)
		if err == nil {
			defer f.Close()
			g, err = readGDM(f)
		}
	default:
		err = fmt.Errorf("need -in or -demo (see -help)")
	}
	if err != nil {
		return err
	}

	switch *format {
	case "svg":
		fmt.Fprint(out, g.Scene().SVG())
	case "ascii":
		fmt.Fprint(out, g.Scene().ASCII(0, 0))
	case "json":
		data, err := g.MarshalJSON()
		if err != nil {
			return err
		}
		out.Write(data)
		fmt.Fprintln(out)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func readGDM(r io.Reader) (*core.GDM, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return core.LoadGDM(data)
}

func buildGDM(sys *comdes.System) (*core.GDM, error) {
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		return nil, err
	}
	g, err := core.Abstract(model, engine.DefaultCOMDESMapping())
	if err != nil {
		return nil, err
	}
	if err := engine.BindCOMDES(g); err != nil {
		return nil, err
	}
	return g, nil
}
