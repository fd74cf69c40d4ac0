// Command gmdf is the Graphical Model Debugger tool: it walks the paper's
// Fig. 6 workflow — input selection, abstraction guide, command setting,
// GDM creation, debugging — against a simulated embedded target, printing
// the abstraction-guide panel (Fig. 4), live animation frames and the
// final timing diagram.
//
//	go run ./cmd/gmdf -model heating -transport passive -ms 3000
//	go run ./cmd/gmdf -model path/to/model.xml -gdm out.gdm
//
// With -connect it drives a session on a gmdfd debug farm server instead
// of an in-process board; the remote trace is byte-identical to the
// in-process one for the same model and budget:
//
//	go run ./cmd/gmdf -connect 127.0.0.1:7788 -model heating -ms 300 -trace remote.trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/farm"
	"repro/models"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmdf:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind an error return: no exit points between a
// side effect and its deferred cleanup, so a late failure (say, an
// unwritable -svg path) cannot skip the trace flush — and tests drive
// the binary end to end without forking.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmdf", flag.ContinueOnError)
	model := fs.String("model", "heating", "built-in model ("+strings.Join(models.Names(), "|")+") or COMDES model XML path; a placed multi-node model (dist) debugs as a cluster on a TDMA bus")
	scenario := fs.String("scenario", "", "scenario DSL file (.gmdf) to debug instead of -model; the source runs the full front end (parse, check, lint) and any finding prints as file:line:col with a caret excerpt")
	checkOnly := fs.Bool("check", false, "with -scenario: run the front end and print diagnostics, then exit without debugging (non-zero exit on errors)")
	transport := fs.String("transport", "active", "command interface: active (RS-232) | passive (JTAG)")
	ms := fs.Uint64("ms", 2000, "virtual milliseconds to debug")
	gdmOut := fs.String("gdm", "", "write the generated GDM file (JSON) here")
	svgOut := fs.String("svg", "", "write the final animated frame (SVG) here")
	breakMachine := fs.String("break-machine", "", "state machine to break on (e.g. heater.thermostat); on the active interface the breakpoint runs on the target itself")
	breakState := fs.String("break-state", "", "state whose entry trips -break-machine (e.g. Heating)")
	checkpointOut := fs.String("checkpoint", "", "write a serialized checkpoint of the final state here (restore it in a fresh process with -restore)")
	restoreIn := fs.String("restore", "", "restore a checkpoint taken from a run of the same model, then continue for -ms (models with stateful environments need the in-process recorder instead)")
	rewindMs := fs.Uint64("rewind", 0, "after the run, rewind the session to this virtual millisecond and report the state there (enables periodic checkpointing)")
	traceOut := fs.String("trace", "", "write the stable-format session trace here (checkpoint-replay determinism diffs)")
	connect := fs.String("connect", "", "drive a session on a gmdfd farm server at this address instead of an in-process board")
	resume := fs.String("resume", "", "with -connect: resume a session from this checkpoint digest in the server's store")
	detach := fs.Bool("detach", false, "with -connect: detach with a checkpoint after the run and print its digest")
	digestOut := fs.String("digest-out", "", "with -connect -detach: also write the checkpoint digest to this file")
	campaignN := fs.Int("campaign", 0, "run a Monte Carlo campaign of this many variants forked from a shared warm checkpoint instead of one debug session; -ms is each variant's run budget")
	campaignWorkers := fs.Int("campaign-workers", 0, "campaign worker count (0 = all cores); cannot change the aggregate")
	campaignWarmMs := fs.Uint64("campaign-warm-ms", 50, "virtual milliseconds of shared warm-up before the fork point")
	campaignSeed := fs.Uint64("campaign-seed", 2010, "campaign seed; every variant's parameter draws derive from it")
	campaignLoss := fs.String("campaign-loss", "", "comma-separated bus loss rates (per-mille) to sweep, e.g. 0,100,400 (multi-node models)")
	campaignJitterUs := fs.String("campaign-jitter-us", "", "comma-separated bus release jitter bounds (µs) to sweep (multi-node models)")
	campaignRotate := fs.Bool("campaign-rotate-slots", false, "also rotate the TDMA slot-owner assignment per variant")
	campaignShuffle := fs.Bool("campaign-shuffle-priorities", false, "permute task priorities per variant (single-board FixedPriority models)")
	campaignMissBudget := fs.Int64("campaign-miss-budget", 0, "per-task deadline-miss tolerance (negative disables the check)")
	campaignDropBudget := fs.Int64("campaign-drop-budget", -1, "cluster-wide frame-drop tolerance (negative disables the check)")
	campaignShrink := fs.Bool("campaign-shrink", false, "binary-search each violating variant to its minimal repro window and attach the trace")
	campaignOut := fs.String("campaign-out", "", "write the aggregate JSON here (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The scenario front end runs before anything else: parse, check and
	// lint the DSL source, print every finding (warnings included) with
	// file:line:col positions, and refuse to debug a file with errors.
	var sc *dsl.Scenario
	if *scenario != "" {
		src, err := os.ReadFile(*scenario)
		if err != nil {
			return err
		}
		s, diags, err := dsl.LoadSource(*scenario, string(src))
		if len(diags) > 0 {
			fmt.Fprint(out, dsl.Render(*scenario, string(src), diags))
		}
		if err != nil {
			return err
		}
		sc = s
		if *checkOnly {
			fmt.Fprintf(out, "%s: system %q checks clean (%d actors, %d warnings)\n",
				*scenario, sc.Sys.Name(), len(sc.File.Actors), len(diags))
			return nil
		}
	} else if *checkOnly {
		return fmt.Errorf("-check needs -scenario")
	}

	// A scenario's run declaration sets the budget unless -ms was given
	// explicitly on the command line.
	budgetNs := *ms * 1_000_000
	if sc != nil && sc.RunNs() > 0 {
		msSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "ms" {
				msSet = true
			}
		})
		if !msSet {
			budgetNs = sc.RunNs()
		}
	}

	if *campaignN > 0 {
		if sc != nil {
			return fmt.Errorf("-campaign does not support -scenario yet; port the scenario to models.ByName first")
		}
		return runCampaign(out, campaignOpts{
			model: *model, variants: *campaignN, workers: *campaignWorkers,
			warmMs: *campaignWarmMs, runMs: *ms, seed: *campaignSeed,
			loss: *campaignLoss, jitterUs: *campaignJitterUs,
			rotate: *campaignRotate, shuffle: *campaignShuffle,
			missBudget: *campaignMissBudget, dropBudget: *campaignDropBudget,
			shrink: *campaignShrink, outPath: *campaignOut,
		})
	}

	if *connect != "" {
		ro := remoteOpts{
			addr: *connect, model: *model, resume: *resume, budgetNs: budgetNs,
			breakMachine: *breakMachine, breakState: *breakState,
			traceOut: *traceOut, detach: *detach, digestOut: *digestOut,
		}
		if sc != nil {
			// The server re-runs the same checker; its session builds from
			// the source text, so the fetched trace diffs clean against an
			// in-process -scenario run.
			ro.model, ro.source, ro.sourceName = "", sc.Source, sc.Name
		}
		return runRemote(out, ro)
	}

	// A built-in model or XML system is the scenario it already is: the
	// standard board, environment and cluster for its name.
	if sc == nil {
		sys, err := models.Load(*model)
		if err != nil {
			return err
		}
		sc = dsl.FromSystem(sys)
	}
	// The Fig. 4 panel of the pairing every session abstracts with.
	fmt.Fprintln(out, "== abstraction guide (Fig. 4) ==")
	fmt.Fprint(out, core.GuideView(comdes.Metamodel(), engine.DefaultCOMDESMapping()))

	// A placed multi-node model debugs distributed: one board per node on
	// a shared clock, cross-node signals on a time-triggered TDMA bus, one
	// session over every node's active interface.
	if sc.Multi() {
		if *breakMachine != "" || *breakState != "" {
			return fmt.Errorf("-break-machine/-break-state are not supported on multi-node models yet")
		}
		if *transport == "passive" {
			return fmt.Errorf("multi-node models debug over every node's active interface; -transport passive is not supported")
		}
	}
	var restored *checkpoint.Checkpoint
	if *restoreIn != "" {
		var err error
		if restored, err = checkpoint.ReadFile(*restoreIn); err != nil {
			return err
		}
	}

	// Fig. 6 steps 4 and 5 via the scenario: compile, board or cluster,
	// channels, the GDM with the COMDES command bindings, and its session.
	tp := repro.Active
	if *transport == "passive" {
		tp = repro.Passive
	}
	dbg, err := sc.Debug(tp, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "GDM created: %d elements, %d command bindings\n\n",
		len(dbg.GDM.Elements()), len(dbg.GDM.Bindings()))
	if *gdmOut != "" {
		data, err := dbg.GDM.MarshalJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*gdmOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", *gdmOut, len(data))
	}
	if dbg.Cluster != nil {
		bus := dbg.Cluster.Net.Schedule()
		fmt.Fprintf(out, "cluster: %v on a %.0f µs TDMA cycle (%.1f%% loss, %.0f µs release jitter)\n",
			dbg.Nodes(), float64(bus.CycleNs())/1000,
			float64(bus.LossPerMille)/10, float64(bus.JitterNs)/1000)
	}
	// The trace is the session's primary artifact — flush it even when a
	// later output step fails, so a determinism diff never reads a
	// truncated file.
	traceWritten := false
	if *traceOut != "" {
		defer func() {
			if !traceWritten {
				_ = os.WriteFile(*traceOut, []byte(dbg.Session.Trace.FormatStable()), 0o644)
			}
		}()
	}

	if restored != nil {
		if err := dbg.RestoreCheckpoint(restored); err != nil {
			return err
		}
		what := "checkpoint"
		if dbg.Cluster != nil {
			what = "cluster checkpoint"
		}
		fmt.Fprintf(out, "restored %s: t=%.3f ms, %d trace records carried over\n",
			what, float64(dbg.Now())/1e6, dbg.Session.Trace.Len())
	}

	// Optional model-level breakpoint: set -> hit -> step -> clear ->
	// continue, end to end over the selected command interface. On the
	// active interface the condition is compiled onto the target-resident
	// agent (halt at the triggering instruction); passively it falls back
	// to host-side event filtering (halt after the frame crosses).
	budget := budgetNs
	if *breakMachine != "" && *breakState != "" {
		if err := dbg.BreakOnState("cli", *breakMachine, *breakState); err != nil {
			return err
		}
		where := "host-side (trace filtering)"
		if dbg.Session.Breakpoints()[0].OnTarget() {
			where = "on-target (resident agent)"
		}
		fmt.Fprintf(out, "breakpoint: enter %s.%s — armed %s\n", *breakMachine, *breakState, where)
	}
	if *rewindMs > 0 {
		// Periodic checkpoints + per-node input/command logs: the session
		// gains reverse execution (enabled after breakpoint arming so the
		// initial checkpoint carries the armed condition).
		if _, err := dbg.EnableCheckpointing(250 * time.Millisecond); err != nil {
			return err
		}
	}
	if err := dbg.RunNs(budget); err != nil {
		return err
	}
	if *breakMachine != "" && dbg.Session.Paused() {
		fmt.Fprintf(out, "breakpoint hit: target halted at %.3f ms\n", float64(dbg.Session.HaltNs())/1e6)
		if err := dbg.StepOnTarget(time.Second); err != nil {
			return err
		}
		fmt.Fprintf(out, "stepped to next model event at %.3f ms, highlights %v\n",
			float64(dbg.Now())/1e6, dbg.GDM.HighlightedElements())
		if err := dbg.Session.ClearBreakpoint("cli"); err != nil {
			return err
		}
		dbg.Session.Continue()
		if spent := dbg.Now(); spent < budget {
			if err := dbg.RunNs(budget - spent); err != nil {
				return err
			}
		}
	}

	fmt.Fprintln(out, "== animated model ==")
	fmt.Fprint(out, dbg.RenderASCII())
	if dbg.Cluster != nil {
		fmt.Fprintf(out, "\nevents=%d reactions=%d network: %d sent, %d lost\n",
			dbg.Session.Handled, dbg.GDM.Reactions, dbg.Cluster.Net.Sent, dbg.Cluster.Net.Dropped)
		for _, node := range dbg.Nodes() {
			// The ok-bool distinguishes "on the bus, no traffic" (printed,
			// all zero) from "unknown to the bus" (skipped).
			st, ok := dbg.BusStats(node)
			if !ok {
				continue
			}
			fmt.Fprintf(out, "bus[%s]: %d enqueued, %d delivered, %d lost, worst queueing %.0f µs\n",
				node, st.Enqueued, st.Delivered, st.Dropped, float64(st.WorstQueueNs)/1000)
		}
		fmt.Fprintln(out, "\n== timing diagram (bus track = slot grid) ==")
	} else {
		fmt.Fprintf(out, "\ntransport=%s events=%d reactions=%d target-cycles=%d instr-cycles=%d\n",
			*transport, dbg.Session.Handled, dbg.GDM.Reactions, dbg.Board.Cycles(), dbg.Board.InstrumentationCycles())
		fmt.Fprintln(out, "\n== timing diagram ==")
	}
	fmt.Fprint(out, dbg.TimingDiagramASCII(76))

	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(dbg.RenderSVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *svgOut)
	}

	if *checkpointOut != "" {
		cp, err := dbg.Checkpoint()
		if err != nil {
			return err
		}
		if err := cp.WriteFile(*checkpointOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote checkpoint %s (t=%.3f ms)\n", *checkpointOut, float64(cp.Time)/1e6)
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, []byte(dbg.Session.Trace.FormatStable()), 0o644); err != nil {
			return err
		}
		traceWritten = true
		fmt.Fprintf(out, "wrote trace %s (%d records)\n", *traceOut, dbg.Session.Trace.Len())
	}

	if *rewindMs > 0 {
		landed, err := dbg.Session.RewindTo(*rewindMs * 1_000_000)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n== rewound to %.3f ms ==\n", float64(landed)/1e6)
		fmt.Fprint(out, dbg.RenderASCII())
		if dbg.Cluster != nil {
			fmt.Fprintf(out, "trace now %d records; network: %d sent, %d lost\n",
				dbg.Session.Trace.Len(), dbg.Cluster.Net.Sent, dbg.Cluster.Net.Dropped)
		} else {
			fmt.Fprintf(out, "trace now %d records; board halted=%v cycles=%d\n",
				dbg.Session.Trace.Len(), dbg.Board.Halted(), dbg.Board.Cycles())
		}
	}
	return nil
}

// campaignOpts is the -campaign mode configuration.
type campaignOpts struct {
	model                  string
	variants, workers      int
	warmMs, runMs, seed    uint64
	loss, jitterUs         string
	rotate, shuffle        bool
	missBudget, dropBudget int64
	shrink                 bool
	outPath                string
}

// runCampaign forks -campaign variants from one warm checkpoint and
// aggregates their observations. The aggregate JSON is a pure function of
// the spec: the CI determinism job diffs it across runs and across
// -campaign-workers settings.
func runCampaign(out io.Writer, o campaignOpts) error {
	spec := campaign.Spec{
		Model: o.model, Variants: o.variants, Seed: o.seed,
		WarmNs: o.warmMs * 1_000_000, RunNs: o.runMs * 1_000_000,
		Workers:     o.workers,
		RotateSlots: o.rotate, ShufflePriorities: o.shuffle,
		MissBudget: o.missBudget, DropBudget: o.dropBudget,
		Shrink: o.shrink,
	}
	for _, f := range strings.Split(o.loss, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return fmt.Errorf("bad -campaign-loss entry %q: %w", f, err)
		}
		spec.Loss = append(spec.Loss, uint32(v))
	}
	for _, f := range strings.Split(o.jitterUs, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return fmt.Errorf("bad -campaign-jitter-us entry %q: %w", f, err)
		}
		spec.JitterNs = append(spec.JitterNs, v*1000)
	}

	agg, err := campaign.Run(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign: %s, %d variants forked at t=%.0f ms, %d ms each\n",
		agg.Model, agg.Variants, float64(agg.WarmNs)/1e6, o.runMs)
	fmt.Fprintf(out, "violating=%d errors=%d drops=%d\n",
		agg.Summary.Violating, agg.Summary.Errors, agg.Summary.TotalDrops)
	for _, ts := range agg.Summary.Tasks {
		name := ts.Task
		if ts.Node != "" {
			name = ts.Node + "/" + ts.Task
		}
		fmt.Fprintf(out, "task %s: worst response %.3f ms, %d misses across %d variants\n",
			name, float64(ts.MaxWorstResponseNs)/1e6, ts.TotalMisses, ts.VariantsMissed)
	}

	buf, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if o.outPath == "" {
		_, err := out.Write(buf)
		return err
	}
	if err := os.WriteFile(o.outPath, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote aggregate %s (%d bytes)\n", o.outPath, len(buf))
	return nil
}

// remoteOpts is the -connect mode configuration.
type remoteOpts struct {
	addr, model, resume      string
	source, sourceName       string // -scenario DSL text shipped to the server
	budgetNs                 uint64
	breakMachine, breakState string
	traceOut, digestOut      string
	detach                   bool
}

// runRemote drives one session on a gmdfd farm server: create (or resume
// from a checkpoint digest), optionally break, run the budget, fetch the
// trace, optionally detach with a checkpoint. The server builds the same
// system, environment and bus schedule this process would build in-process
// — so the fetched trace diffs clean against a local run.
func runRemote(out io.Writer, o remoteOpts) error {
	cl, err := farm.Dial(o.addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	created, err := cl.Create(farm.CreateParams{
		Model: o.model, Checkpoint: o.resume,
		Source: o.source, SourceName: o.sourceName,
	})
	if err != nil {
		return err
	}
	sid := created.Session
	if o.resume != "" {
		fmt.Fprintf(out, "resumed session %s on %s: model %s at t=%.3f ms, %d trace records carried over\n",
			sid, o.addr, created.Model, float64(created.NowNs)/1e6, created.Records)
	} else {
		fmt.Fprintf(out, "created session %s on %s: model %s\n", sid, o.addr, created.Model)
	}
	if len(created.Nodes) > 1 {
		fmt.Fprintf(out, "cluster session: nodes %v\n", created.Nodes)
	}
	if _, err := cl.Attach(sid); err != nil {
		return err
	}

	if o.breakMachine != "" && o.breakState != "" {
		br, err := cl.Break(sid, farm.BreakParams{ID: "cli", Machine: o.breakMachine, State: o.breakState})
		if err != nil {
			return err
		}
		where := "host-side (trace filtering)"
		if br.OnTarget {
			where = "on-target (resident agent)"
		}
		fmt.Fprintf(out, "breakpoint: enter %s.%s — armed %s\n", o.breakMachine, o.breakState, where)
	}

	budget := created.NowNs + o.budgetNs
	run, err := cl.RunUntil(sid, budget)
	if err != nil {
		return err
	}
	if run.Paused && run.LastBreak != "" {
		fmt.Fprintf(out, "breakpoint hit: target halted at %.3f ms\n", float64(run.HaltNs)/1e6)
		// Disarm before resuming — a still-true condition re-trips at the
		// next check site — then spend the rest of the budget.
		if err := cl.ClearBreak(sid, run.LastBreak); err != nil {
			return err
		}
		if _, err := cl.Continue(sid); err != nil {
			return err
		}
		if run, err = cl.RunUntil(sid, budget); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "remote session at %.3f ms: %d events handled, %d trace records\n",
		float64(run.NowNs)/1e6, run.Handled, run.Records)

	if o.traceOut != "" {
		tr, err := cl.TraceStable(sid)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, []byte(tr.Stable), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote trace %s (%d records)\n", o.traceOut, tr.Records)
	}

	if o.detach {
		det, err := cl.Detach(sid, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "detached: checkpoint %s (t=%.3f ms)\n", det.Digest, float64(det.TimeNs)/1e6)
		if o.digestOut != "" {
			if err := os.WriteFile(o.digestOut, []byte(det.Digest+"\n"), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
