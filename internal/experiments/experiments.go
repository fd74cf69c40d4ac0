// Package experiments regenerates every figure and measurable claim of
// the paper as a printable report: the tables of the E1–E12 experiment
// index (E2, E3 and E8 only time things, so they live in the root
// benchmarks).
// cmd/experiments prints all of them; the root benchmarks time the hot
// paths; the package tests assert the qualitative *shape* the paper
// claims (who wins, what is zero, what diverges).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jtag"
	"repro/internal/metamodel"
	"repro/internal/plant"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
	"repro/internal/workbench"
	"repro/models"
)

// thermalEnv attaches the thermal plant to a heating-model board.
func thermalEnv(b *target.Board) {
	room := plant.NewThermal(15)
	var last uint64
	b.PreLatch = func(now uint64, actor string) {
		if actor != "heater" {
			return
		}
		dt := now - last
		last = now
		power := 0.0
		if p, err := b.ReadOutput("heater", "power"); err == nil {
			power = p.Float()
		}
		temp := room.Step(dt, power)
		_ = b.WriteInput("heater", "temp", value.F(temp))
		_ = b.WriteInput("heater", "mode", value.I(2))
	}
}

// buildHeatingBoard compiles the heating model and attaches the plant.
func buildHeatingBoard(opts codegen.Options) (*target.Board, *codegen.Program, error) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		return nil, nil, err
	}
	prog, err := codegen.Compile(sys, opts)
	if err != nil {
		return nil, nil, err
	}
	b, err := target.NewBoard("main", prog, target.Config{Bindings: sys.Bindings}, nil)
	if err != nil {
		return nil, nil, err
	}
	thermalEnv(b)
	return b, prog, nil
}

// heatingGDM abstracts the heating model with the default mapping.
func heatingGDM() (*core.GDM, *comdes.System, error) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		return nil, nil, err
	}
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		return nil, nil, err
	}
	g, err := core.Abstract(model, engine.DefaultCOMDESMapping())
	if err != nil {
		return nil, nil, err
	}
	if err := engine.BindCOMDES(g); err != nil {
		return nil, nil, err
	}
	return g, sys, nil
}

// ---- E1: Fig. 1 — both debuggers attach to one MDD pipeline ----

// E1Result shows the same state change observed at code level and at
// model level on the same generated program.
type E1Result struct {
	ListingLines   int
	Symbols        int
	CodeLevelState int64 // state var after code-level run
	ModelLevelSeen string
}

// E1Pipeline runs the experiment.
func E1Pipeline() (*E1Result, error) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(sys, codegen.Options{
		Instrument: codegen.Instrument{StateEnter: true, Transitions: true},
	})
	if err != nil {
		return nil, err
	}
	res := &E1Result{ListingLines: len(prog.Source), Symbols: prog.Symbols.Len()}

	// Code-level path: run one cold cycle under the GDB-like debugger.
	bus := codegen.NewMapBus(prog.Symbols)
	u := prog.Unit("heater")
	if _, err := codegen.Exec(prog, u.Init, bus); err != nil {
		return nil, err
	}
	if err := bus.StoreSym(u.InputSyms["temp"], value.F(10)); err != nil {
		return nil, err
	}
	if err := bus.StoreSym(u.InputSyms["mode"], value.I(2)); err != nil {
		return nil, err
	}
	for _, lp := range u.InLatch {
		v, _ := bus.LoadSym(lp.Work)
		if err := bus.StoreSym(lp.Out, v); err != nil {
			return nil, err
		}
	}
	dbg := baseline.NewCodeDebugger(prog, bus)
	if _, _, err := dbg.RunUnit(u); err != nil {
		return nil, err
	}
	st, err := dbg.Inspect("heater.thermostat.__state")
	if err != nil {
		return nil, err
	}
	res.CodeLevelState = st.Int()

	// Model-level path: the GDM sees the same fact as a state entry.
	g, _, err := heatingGDM()
	if err != nil {
		return nil, err
	}
	if _, err := g.HandleEvent(protocol.Event{
		Type: protocol.EvStateEnter, Source: "heater.thermostat", Arg1: "Heating",
	}); err != nil {
		return nil, err
	}
	hl := g.HighlightedElements()
	for _, id := range hl {
		if strings.HasPrefix(id, "state:") {
			res.ModelLevelSeen = id
		}
	}
	return res, nil
}

// String formats the E1 report.
func (r *E1Result) String() string {
	return fmt.Sprintf(`E1 (Fig. 1) — one pipeline, two debuggers
  generated listing lines : %d
  RAM symbols             : %d
  code level  : state variable heater.thermostat.__state = %d (Heating)
  model level : highlighted element %s
`, r.ListingLines, r.Symbols, r.CodeLevelState, r.ModelLevelSeen)
}

// ---- E4: Fig. 4 — abstraction sweep over model size ----

// E4Row is one sweep point.
type E4Row struct {
	Machines int
	Objects  int
	Elements int
	Conforms bool
}

// E4Abstraction sweeps the ChainFSM model size.
func E4Abstraction(sizes []int) ([]E4Row, error) {
	var rows []E4Row
	meta := comdes.Metamodel()
	for _, n := range sizes {
		sys, err := models.ChainFSM(n)
		if err != nil {
			return nil, err
		}
		model, err := comdes.ToModel(sys, meta)
		if err != nil {
			return nil, err
		}
		g, err := core.Abstract(model, engine.DefaultCOMDESMapping())
		if err != nil {
			return nil, err
		}
		rows = append(rows, E4Row{
			Machines: n, Objects: model.Len(), Elements: len(g.Elements()),
			Conforms: g.Conformance() == nil,
		})
	}
	return rows, nil
}

// FormatE4 renders the sweep table.
func FormatE4(rows []E4Row) string {
	var b strings.Builder
	b.WriteString("E4 (Fig. 4) — abstraction sweep (ChainFSM)\n")
	b.WriteString("  machines  model-objects  gdm-elements  conforms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %8d  %13d  %12d  %v\n", r.Machines, r.Objects, r.Elements, r.Conforms)
	}
	return b.String()
}

// ---- E5: Fig. 5 — animated COMDES model ----

// E5Result summarises an animation run.
type E5Result struct {
	VirtualMs     uint64
	EventsHandled uint64
	Reactions     uint64
	FrameBytes    int // size of one SVG frame
	Highlighted   []string
}

// E5Animation runs the heating model live for 500 virtual ms.
func E5Animation() (*E5Result, error) {
	g, sys, err := heatingGDM()
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(sys, codegen.Options{
		Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true},
	})
	if err != nil {
		return nil, err
	}
	b, err := target.NewBoard("main", prog, target.Config{Bindings: sys.Bindings}, nil)
	if err != nil {
		return nil, err
	}
	thermalEnv(b)
	s := engine.NewSession(g, b)
	s.AddSource(engine.NewSerialSource(b.HostPort()))
	for i := 0; i < 500; i++ {
		b.RunFor(1_000_000)
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			return nil, err
		}
	}
	return &E5Result{
		VirtualMs:     500,
		EventsHandled: s.Handled,
		Reactions:     g.Reactions,
		FrameBytes:    len(g.Scene().SVG()),
		Highlighted:   g.HighlightedElements(),
	}, nil
}

// String formats the E5 report.
func (r *E5Result) String() string {
	return fmt.Sprintf(`E5 (Fig. 5) — model animation on live target
  virtual time      : %d ms
  commands handled  : %d
  reactions applied : %d
  SVG frame size    : %d bytes
  final highlights  : %s
`, r.VirtualMs, r.EventsHandled, r.Reactions, r.FrameBytes, strings.Join(r.Highlighted, ", "))
}

// ---- E6: Fig. 6 — workflow steps ----

// E6Workflow walks the wizard and reports the step log.
func E6Workflow() (string, error) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		return "", err
	}
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		return "", err
	}
	w := workbench.NewWizard()
	if err := w.SelectInputs(meta, model); err != nil {
		return "", err
	}
	if err := w.UseMapping(engine.DefaultCOMDESMapping()); err != nil {
		return "", err
	}
	if err := w.FinishAbstraction(); err != nil {
		return "", err
	}
	if err := w.BindCommand(core.Binding{
		Name: "enter", Event: protocol.EvStateEnter,
		KeyTemplate: "state:$source.$arg1", Reaction: core.ReactHighlightExclusive,
	}); err != nil {
		return "", err
	}
	if err := w.FinishCommandSetup(); err != nil {
		return "", err
	}
	prog, err := codegen.Compile(sys, codegen.Options{Instrument: codegen.Instrument{StateEnter: true}})
	if err != nil {
		return "", err
	}
	b, err := target.NewBoard("main", prog, target.Config{Bindings: sys.Bindings}, nil)
	if err != nil {
		return "", err
	}
	thermalEnv(b)
	s, err := w.Attach(b, engine.NewSerialSource(b.HostPort()))
	if err != nil {
		return "", err
	}
	for i := 0; i < 200; i++ {
		b.RunFor(1_000_000)
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			return "", err
		}
	}
	var out strings.Builder
	out.WriteString("E6 (Fig. 6) — five-step execution flow\n")
	for _, rec := range w.Log {
		fmt.Fprintf(&out, "  completed %-20s\n", rec.Step)
	}
	fmt.Fprintf(&out, "  debugging: %d commands handled, GDM state %v\n", s.Handled, w.GDM().State())
	return out.String(), nil
}

// ---- E7: active vs passive command interface overhead ----

// E7Row is one configuration of the overhead experiment.
type E7Row struct {
	Config      string
	TotalCycles uint64
	InstrCycles uint64
	OverheadPct float64
	Events      int
	SerialBytes uint64
	ProbeHostMs float64
}

// E7ActiveVsPassive runs the heating model for 1 virtual second under each
// command-interface configuration and measures target-side cost.
func E7ActiveVsPassive() ([]E7Row, error) {
	const dur = 1_000_000_000
	type cfg struct {
		name string
		opts codegen.Options
		jtag bool
	}
	cfgs := []cfg{
		{"clean (no debug)", codegen.Options{}, false},
		{"active: states+transitions", codegen.Options{Instrument: codegen.Instrument{StateEnter: true, Transitions: true}}, false},
		{"active: +signals", codegen.Options{Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}}, false},
		{"passive: JTAG watch", codegen.Options{}, true},
	}
	var baselineCycles uint64
	var rows []E7Row
	for i, c := range cfgs {
		b, prog, err := buildHeatingBoard(c.opts)
		if err != nil {
			return nil, err
		}
		events := 0
		var probe *jtag.Probe
		var watcher *jtag.Watcher
		var dec protocol.Decoder
		if c.jtag {
			probe = jtag.NewProbe(b.TAP)
			probe.Reset()
			watcher = jtag.NewWatcher(probe)
			if err := engine.AutoWatches(watcher, prog); err != nil {
				return nil, err
			}
		}
		for t := uint64(0); t < dur; t += 1_000_000 {
			b.RunFor(1_000_000)
			if c.jtag {
				events += len(watcher.Poll(b.Now()))
			} else {
				evs, _ := dec.Feed(b.HostPort().Recv())
				events += len(evs)
			}
		}
		row := E7Row{
			Config:      c.name,
			TotalCycles: b.Cycles(),
			InstrCycles: b.InstrumentationCycles(),
			Events:      events,
			SerialBytes: b.HostPort().Stats().Bytes,
		}
		// Serial stats are on the target's transmit direction.
		row.SerialBytes = b.Link.PortA().Stats().Bytes
		if probe != nil {
			row.ProbeHostMs = float64(probe.HostTimeNs()) / 1e6
		}
		if i == 0 {
			baselineCycles = row.TotalCycles
		}
		if baselineCycles > 0 {
			row.OverheadPct = 100 * (float64(row.TotalCycles) - float64(baselineCycles)) / float64(baselineCycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatE7 renders the overhead table.
func FormatE7(rows []E7Row) string {
	var b strings.Builder
	b.WriteString("E7 — command interface overhead (heating model, 1 s virtual)\n")
	b.WriteString("  config                         cycles      instr-cyc  overhead  events  uart-bytes  probe-host-ms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s  %10d  %9d  %7.2f%%  %6d  %10d  %13.2f\n",
			r.Config, r.TotalCycles, r.InstrCycles, r.OverheadPct, r.Events, r.SerialBytes, r.ProbeHostMs)
	}
	b.WriteString("  shape: active > clean; passive == clean (zero target overhead)\n")
	return b.String()
}

// ---- E7b ablation: the active interface is bandwidth-limited ----

// E7bRow is one baud-rate point: how many of the emitted commands
// actually reach the GDM within the run, and how many bytes the saturated
// UART dropped.
type E7bRow struct {
	Baud         int
	Emitted      int // events the instrumented code sent
	Delivered    int // events decoded host-side within the window
	DroppedBytes uint64
}

// E7bBaudSweep runs the fully instrumented heating model for 1 virtual
// second at several line rates. It quantifies *why* the paper moves to
// JTAG: dense active instrumentation saturates a slow serial link.
func E7bBaudSweep(bauds []int) ([]E7bRow, error) {
	const dur = 1_000_000_000
	var rows []E7bRow
	for _, baud := range bauds {
		sys, err := models.Heating(models.HeatingOptions{})
		if err != nil {
			return nil, err
		}
		prog, err := codegen.Compile(sys, codegen.Options{
			Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true},
		})
		if err != nil {
			return nil, err
		}
		b, err := target.NewBoard("main", prog, target.Config{Baud: baud, Bindings: sys.Bindings}, nil)
		if err != nil {
			return nil, err
		}
		thermalEnv(b)
		var dec protocol.Decoder
		delivered := 0
		for t := uint64(0); t < dur; t += 1_000_000 {
			b.RunFor(1_000_000)
			evs, _ := dec.Feed(b.HostPort().Recv())
			delivered += len(evs)
		}
		stats := b.Link.PortA().Stats()
		// Emitted = frames the firmware tried to send; approximate from
		// instrumentation cycles (one EmitCycles per event) plus Hello.
		emitted := int(b.InstrumentationCycles()/codegen.EmitCycles) + 1
		rows = append(rows, E7bRow{
			Baud: baud, Emitted: emitted, Delivered: delivered, DroppedBytes: stats.Dropped,
		})
	}
	return rows, nil
}

// FormatE7b renders the baud sweep.
func FormatE7b(rows []E7bRow) string {
	var b strings.Builder
	b.WriteString("E7b — active interface vs line rate (heating, full instrumentation, 1 s)\n")
	b.WriteString("  baud      emitted  delivered  dropped-bytes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %7d  %7d  %9d  %13d\n", r.Baud, r.Emitted, r.Delivered, r.DroppedBytes)
	}
	b.WriteString("  shape: slower lines deliver fewer commands late or drop them —\n")
	b.WriteString("  the bandwidth argument for the passive JTAG solution\n")
	return b.String()
}

// ---- E9: design errors vs implementation errors ----

// E9Result captures both bug-class experiments.
type E9Result struct {
	// Design error (wrong cut-out guard in the model):
	CorrectBreakHit bool    // cut-out transition breakpoint hits on correct model
	FaultyBreakHit  bool    // ... and never hits on the faulty model
	FaultyMaxTemp   float64 // plant overshoot under the faulty model
	CorrectMaxTemp  float64

	// Implementation error (mis-wired connection during codegen):
	CleanDivergence  int // -1 = never diverges from the reference semantics
	FaultyDivergence int // cycle index of first divergence
}

// E9Errors runs both halves.
func E9Errors() (*E9Result, error) {
	res := &E9Result{CleanDivergence: -1, FaultyDivergence: -1}

	// -- design error: model-level breakpoint on the cut-out transition.
	runDesign := func(wrong bool) (bool, float64, error) {
		sys, err := models.Heating(models.HeatingOptions{WrongGuard: wrong})
		if err != nil {
			return false, 0, err
		}
		meta := comdes.Metamodel()
		model, err := comdes.ToModel(sys, meta)
		if err != nil {
			return false, 0, err
		}
		g, err := core.Abstract(model, engine.MinimalCOMDESMapping())
		if err != nil {
			return false, 0, err
		}
		if err := engine.BindCOMDES(g); err != nil {
			return false, 0, err
		}
		prog, err := codegen.Compile(sys, codegen.Options{
			Instrument: codegen.Instrument{StateEnter: true, Transitions: true},
		})
		if err != nil {
			return false, 0, err
		}
		b, err := target.NewBoard("main", prog, target.Config{Bindings: sys.Bindings}, nil)
		if err != nil {
			return false, 0, err
		}
		room := plant.NewThermal(15)
		var last uint64
		maxTemp := 0.0
		b.PreLatch = func(now uint64, actor string) {
			if actor != "heater" {
				return
			}
			dt := now - last
			last = now
			power := 0.0
			if p, err := b.ReadOutput("heater", "power"); err == nil {
				power = p.Float()
			}
			temp := room.Step(dt, power)
			if temp > maxTemp {
				maxTemp = temp
			}
			_ = b.WriteInput("heater", "temp", value.F(temp))
			_ = b.WriteInput("heater", "mode", value.I(2))
		}
		s := engine.NewSession(g, b)
		s.AddSource(engine.NewSerialSource(b.HostPort()))
		// The requirement: the heater must cut out (fire "warm") soon
		// after passing 21 °C. Break on that transition.
		if err := s.SetBreakpoint(engine.Breakpoint{
			ID: "cutout", Event: protocol.EvTransition,
			Source: "heater.thermostat", Arg1: "Heating",
		}); err != nil {
			return false, 0, err
		}
		for t := 0; t < 30_000 && !s.Paused(); t++ {
			b.RunFor(1_000_000)
			if _, err := s.ProcessEvents(b.Now()); err != nil {
				return false, 0, err
			}
		}
		return s.Paused() && s.LastBreak != nil && s.LastBreak.ID == "cutout", maxTemp, nil
	}
	var err error
	res.CorrectBreakHit, res.CorrectMaxTemp, err = runDesign(false)
	if err != nil {
		return nil, err
	}
	hit, maxTemp, err := runDesign(true)
	if err != nil {
		return nil, err
	}
	res.FaultyBreakHit = hit
	res.FaultyMaxTemp = maxTemp

	// -- implementation error: mis-wired connection; detect by divergence
	// from the reference interpreter on a scripted input trace.
	divergence := func(opts codegen.Options) (int, error) {
		sys, err := models.Heating(models.HeatingOptions{})
		if err != nil {
			return 0, err
		}
		prog, err := codegen.Compile(sys, opts)
		if err != nil {
			return 0, err
		}
		bus := codegen.NewMapBus(prog.Symbols)
		u := prog.Unit("heater")
		if _, err := codegen.Exec(prog, u.Init, bus); err != nil {
			return 0, err
		}
		refSys, err := models.Heating(models.HeatingOptions{})
		if err != nil {
			return 0, err
		}
		it := comdes.NewInterpreter(refSys)
		temps := []float64{20, 18, 16, 20, 22, 25, 20, 17, 23, 19}
		for i, tv := range temps {
			if err := bus.StoreSym(u.InputSyms["temp"], value.F(tv)); err != nil {
				return 0, err
			}
			if err := bus.StoreSym(u.InputSyms["mode"], value.I(2)); err != nil {
				return 0, err
			}
			for _, lp := range u.InLatch {
				v, _ := bus.LoadSym(lp.Work)
				if err := bus.StoreSym(lp.Out, v); err != nil {
					return 0, err
				}
			}
			if _, err := codegen.Exec(prog, u.Body, bus); err != nil {
				return 0, err
			}
			for _, lp := range u.OutLatch {
				v, _ := bus.LoadSym(lp.Work)
				if err := bus.StoreSym(lp.Out, v); err != nil {
					return 0, err
				}
			}
			it.Env["heater.temp"] = value.F(tv)
			it.Env["heater.mode"] = value.I(2)
			want, err := it.StepActor("heater")
			if err != nil {
				return 0, err
			}
			for port, sym := range u.OutputSyms {
				got, err := bus.LoadSym(sym)
				if err != nil {
					return 0, err
				}
				if !value.Equal(got, want[port]) {
					return i, nil
				}
			}
		}
		return -1, nil
	}
	res.CleanDivergence, err = divergence(codegen.Options{})
	if err != nil {
		return nil, err
	}
	// Mis-wire the boost input to take the raw temperature instead of the
	// thermostat demand (connection 1 of the heater network).
	res.FaultyDivergence, err = divergence(codegen.Options{FaultRewire: &codegen.Rewire{
		Actor: "heater", ConnIndex: 1, FromBlock: "", FromPort: "temp",
	}})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String formats the E9 report.
func (r *E9Result) String() string {
	return fmt.Sprintf(`E9 — two bug classes at model level
  design error (wrong cut-out guard in the model):
    correct model: cut-out breakpoint hit=%v, plant max temp %.1f °C
    faulty model : cut-out breakpoint hit=%v, plant max temp %.1f °C (overshoot)
  implementation error (mis-wired connection in codegen):
    clean build : first divergence from reference semantics at cycle %d (-1 = none)
    faulty build: first divergence at cycle %d
`, r.CorrectBreakHit, r.CorrectMaxTemp, r.FaultyBreakHit, r.FaultyMaxTemp,
		r.CleanDivergence, r.FaultyDivergence)
}

// ---- E10: model-level vs code-level effort ----

// E10Result compares debugging effort for the same fact.
type E10Result struct {
	CodeInstructions uint64
	CodeInspections  uint64
	ModelEvents      int
}

// E10StepsToBug measures how much work each debugger needs to observe
// "the thermostat entered Heating".
func E10StepsToBug() (*E10Result, error) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(sys, codegen.Options{})
	if err != nil {
		return nil, err
	}
	bus := codegen.NewMapBus(prog.Symbols)
	u := prog.Unit("heater")
	if _, err := codegen.Exec(prog, u.Init, bus); err != nil {
		return nil, err
	}
	if err := bus.StoreSym(u.InputSyms["temp"], value.F(10)); err != nil {
		return nil, err
	}
	if err := bus.StoreSym(u.InputSyms["mode"], value.I(2)); err != nil {
		return nil, err
	}
	for _, lp := range u.InLatch {
		v, _ := bus.LoadSym(lp.Work)
		if err := bus.StoreSym(lp.Out, v); err != nil {
			return nil, err
		}
	}
	dbg := baseline.NewCodeDebugger(prog, bus)
	m := codegen.NewMachine(prog, u.Body, bus)
	for {
		st, err := dbg.Inspect("heater.thermostat.__state")
		if err != nil {
			return nil, err
		}
		if st.Int() == 1 {
			break
		}
		more, err := dbg.StepInstruction(m)
		if err != nil {
			return nil, err
		}
		if !more {
			return nil, fmt.Errorf("experiments: state never changed")
		}
	}
	return &E10Result{
		CodeInstructions: dbg.InstructionsStepped,
		CodeInspections:  dbg.Inspections,
		ModelEvents:      1,
	}, nil
}

// String formats the E10 report.
func (r *E10Result) String() string {
	return fmt.Sprintf(`E10 — effort to observe "machine entered Heating"
  GDB/DDD baseline : %d single-steps + %d inspections
  GMDF             : %d model-level event (EvStateEnter announces it)
`, r.CodeInstructions, r.CodeInspections, r.ModelEvents)
}

// ---- E11: multi-type, multi-instance, foreign metamodel ----

// E11Result summarises input generality.
type E11Result struct {
	HeatingPatterns map[string]int // multi-type: FSM + dataflow in one GDM
	RingMachines    int
	RingElements    int
	ForeignElements int // petri-net-like metamodel accepted
}

// E11MultiModel runs all three generality checks.
func E11MultiModel() (*E11Result, error) {
	res := &E11Result{}
	g, _, err := heatingGDM()
	if err != nil {
		return nil, err
	}
	res.HeatingPatterns = g.ElementsByPattern()

	ring, err := models.TokenRing(6)
	if err != nil {
		return nil, err
	}
	meta := comdes.Metamodel()
	ringModel, err := comdes.ToModel(ring, meta)
	if err != nil {
		return nil, err
	}
	rg, err := core.Abstract(ringModel, engine.MinimalCOMDESMapping())
	if err != nil {
		return nil, err
	}
	res.RingMachines = 6
	res.RingElements = len(rg.Elements())

	// Foreign MOF metamodel: a petri-net language GMDF has never seen.
	pn := metamodel.NewMetamodel("petri", "urn:test:petri")
	pn.MustClass("Node", true, "").Attr("name", value.String)
	pn.MustClass("Place", false, "Node").Attr("tokens", value.Int)
	pn.MustClass("Trans", false, "Node")
	pn.MustClass("Arc", false, "").
		RefTo("src", "Node", 1, 1).
		RefTo("dst", "Node", 1, 1)
	pn.MustClass("PetriNet", false, "").Attr("name", value.String).
		Contain("nodes", "Node").Contain("arcs", "Arc")
	if err := pn.Validate(); err != nil {
		return nil, err
	}
	net := metamodel.NewModel(pn)
	root := net.MustObject("PetriNet", "net").MustSet("name", value.S("demo"))
	p1 := net.MustObject("Place", "p1").MustSet("name", value.S("ready")).MustSet("tokens", value.I(1))
	t1 := net.MustObject("Trans", "t1").MustSet("name", value.S("fire"))
	p2 := net.MustObject("Place", "p2").MustSet("name", value.S("done"))
	a1 := net.MustObject("Arc", "a1")
	a1.MustAppend("src", p1)
	a1.MustAppend("dst", t1)
	a2 := net.MustObject("Arc", "a2")
	a2.MustAppend("src", t1)
	a2.MustAppend("dst", p2)
	root.MustAppend("nodes", p1).MustAppend("nodes", t1).MustAppend("nodes", p2)
	root.MustAppend("arcs", a1).MustAppend("arcs", a2)
	if err := net.AddRoot(root); err != nil {
		return nil, err
	}
	pm := core.NewMapping()
	pm.MustPair(core.Rule{MetaClass: "Place", Pattern: "Circle"})
	pm.MustPair(core.Rule{MetaClass: "Trans", Pattern: "Rectangle"})
	pm.MustPair(core.Rule{MetaClass: "Arc", Pattern: "Arrow", Resolve: core.ResolveRefs("src", "dst")})
	fg, err := core.Abstract(net, pm)
	if err != nil {
		return nil, err
	}
	res.ForeignElements = len(fg.Elements())
	return res, nil
}

// String formats the E11 report.
func (r *E11Result) String() string {
	var pats []string
	for _, p := range core.Patterns {
		if n := r.HeatingPatterns[p]; n > 0 {
			pats = append(pats, fmt.Sprintf("%s=%d", p, n))
		}
	}
	return fmt.Sprintf(`E11 — input model generality
  multi-type (heating)   : one GDM mixes %s
  multi-instance (ring6) : %d machines -> %d elements, exclusive groups per machine
  foreign MOF (petri net): accepted, %d elements
`, strings.Join(pats, " "), r.RingMachines, r.RingElements, r.ForeignElements)
}

// ---- E12: model-level breakpoints ----

// E12Result captures breakpoint behaviour.
type E12Result struct {
	HitAtMs      float64
	EventsBefore uint64
	StepEvents   uint64 // events per step operation (must be 1)
}

// E12Breakpoints verifies break/step mechanics on the live heating model.
func E12Breakpoints() (*E12Result, error) {
	g, sys, err := heatingGDM()
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(sys, codegen.Options{
		Instrument: codegen.Instrument{StateEnter: true, Transitions: true},
	})
	if err != nil {
		return nil, err
	}
	b, err := target.NewBoard("main", prog, target.Config{Bindings: sys.Bindings}, nil)
	if err != nil {
		return nil, err
	}
	thermalEnv(b)
	s := engine.NewSession(g, b)
	s.AddSource(engine.NewSerialSource(b.HostPort()))
	if err := s.SetBreakpoint(engine.Breakpoint{
		ID: "bp", Event: protocol.EvStateEnter, Source: "heater.thermostat", Arg1: "Heating",
	}); err != nil {
		return nil, err
	}
	for !s.Paused() && b.Now() < 10_000_000_000 {
		b.RunFor(1_000_000)
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			return nil, err
		}
	}
	if !s.Paused() {
		return nil, fmt.Errorf("experiments: breakpoint never hit")
	}
	res := &E12Result{HitAtMs: float64(b.Now()) / 1e6, EventsBefore: s.Handled}
	// One step = exactly one more model event.
	before := s.Handled
	s.Step()
	for s.Handled == before && b.Now() < 20_000_000_000 {
		b.RunFor(1_000_000)
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			return nil, err
		}
		if s.Paused() {
			break
		}
	}
	res.StepEvents = s.Handled - before
	return res, nil
}

// String formats the E12 report.
func (r *E12Result) String() string {
	return fmt.Sprintf(`E12 — model-level breakpoints and stepping
  breakpoint "enter Heating" hit at t = %.1f ms (after %d events)
  one Step() advanced exactly %d model-level event(s)
`, r.HitAtMs, r.EventsBefore, r.StepEvents)
}

// All runs every experiment and concatenates the reports.
func All() (string, error) {
	var b strings.Builder
	e1, err := E1Pipeline()
	if err != nil {
		return "", fmt.Errorf("E1: %w", err)
	}
	b.WriteString(e1.String() + "\n")
	rows4, err := E4Abstraction([]int{2, 8, 32, 64})
	if err != nil {
		return "", fmt.Errorf("E4: %w", err)
	}
	b.WriteString(FormatE4(rows4) + "\n")
	e5, err := E5Animation()
	if err != nil {
		return "", fmt.Errorf("E5: %w", err)
	}
	b.WriteString(e5.String() + "\n")
	e6, err := E6Workflow()
	if err != nil {
		return "", fmt.Errorf("E6: %w", err)
	}
	b.WriteString(e6 + "\n")
	rows7, err := E7ActiveVsPassive()
	if err != nil {
		return "", fmt.Errorf("E7: %w", err)
	}
	b.WriteString(FormatE7(rows7) + "\n")
	rows7b, err := E7bBaudSweep([]int{9600, 115200, 1_000_000})
	if err != nil {
		return "", fmt.Errorf("E7b: %w", err)
	}
	b.WriteString(FormatE7b(rows7b) + "\n")
	e9, err := E9Errors()
	if err != nil {
		return "", fmt.Errorf("E9: %w", err)
	}
	b.WriteString(e9.String() + "\n")
	e10, err := E10StepsToBug()
	if err != nil {
		return "", fmt.Errorf("E10: %w", err)
	}
	b.WriteString(e10.String() + "\n")
	e11, err := E11MultiModel()
	if err != nil {
		return "", fmt.Errorf("E11: %w", err)
	}
	b.WriteString(e11.String() + "\n")
	e12, err := E12Breakpoints()
	if err != nil {
		return "", fmt.Errorf("E12: %w", err)
	}
	b.WriteString(e12.String())
	return b.String(), nil
}
