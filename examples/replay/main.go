// Replay: record a model-level execution trace, persist it, reload it and
// replay it through a fresh GDM with the timing diagram the paper couples
// to the replay function ("model-level animation might occur in
// milliseconds ... the user can then monitor the application's behavior
// via a replay function associated with a timing diagram").
//
//	go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/models"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
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
		Environment: repro.StandardEnvironment("heating"),
	})
	if err != nil {
		return err
	}

	// Record a live session.
	if err := dbg.Run(4 * time.Second); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d events over %d virtual ms\n", dbg.Session.Trace.Len(), dbg.Board.Now()/1_000_000)

	// Persist and reload the trace (JSONL).
	var buf bytes.Buffer
	if err := dbg.Session.Trace.WriteJSONL(&buf); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace file: %d bytes of JSONL\n", buf.Len())
	reloaded, err := trace.ReadJSONL(&buf)
	if err != nil {
		return err
	}

	// Replay into a fresh GDM at 4x speed (no target needed).
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		return err
	}
	g, err := core.Abstract(model, engine.DefaultCOMDESMapping())
	if err != nil {
		return err
	}
	if err := engine.BindCOMDES(g); err != nil {
		return err
	}
	session := engine.NewSession(g, nil)
	rep := trace.NewReplayer(reloaded, 4)
	session.AddSource(rep)
	for now := uint64(0); !rep.Done(); now += 1_000_000 {
		if _, err := session.ProcessEvents(now); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "replayed %d events; final highlights %v (matches live: %v)\n",
		session.Handled, g.HighlightedElements(),
		fmt.Sprint(g.HighlightedElements()) == fmt.Sprint(dbg.GDM.HighlightedElements()))

	fmt.Fprintln(out, "\n== timing diagram of the replayed trace ==")
	fmt.Fprint(out, reloaded.TimingDiagram().ASCII(76))
	return nil
}
