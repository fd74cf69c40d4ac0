package dsl

import (
	"fmt"

	"repro"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/internal/expr"
	"repro/internal/target"
	"repro/internal/value"
)

// Scenario is the one recipe for a debug session: a comdes system plus
// the execution configuration its declarations imply. A loaded .gmdf file
// is one; a built-in model or XML system is one too (FromSystem), with no
// declarations besides `environment standard`, so the undeclared defaults
// (StandardBoardConfig, StandardEnvironment, StandardClusterConfig) are
// what every front end runs a model on. Debug builds the session, and is
// the one place above repro that decides board or cluster. A scenario
// port of a model therefore produces byte-identical traces.
type Scenario struct {
	Name   string // source file name (diagnostics, labels)
	Source string
	File   *File
	Sys    *comdes.System

	drives []compiledDrive
}

type compiledDrive struct {
	actor, port string
	node        string // the board it writes on; "" on a one-node system
	expr        expr.Node
}

// LoadSource runs the whole front end — parse, check, lint, build — on
// one source text. The returned diagnostics always carry every finding
// (warnings included); the scenario is nil exactly when they contain
// errors, and err then summarises the count. name is used verbatim in
// rendered diagnostics.
func LoadSource(name, src string) (*Scenario, []Diagnostic, error) {
	f, diags := ParseFile(src)
	if !HasErrors(diags) {
		diags = append(diags, Check(f, DefaultLimits())...)
	}
	if !HasErrors(diags) {
		diags = append(diags, Lint(f)...)
	}
	sortDiags(diags)
	if HasErrors(diags) {
		n := 0
		for _, d := range diags {
			if d.Sev == SevError {
				n++
			}
		}
		return nil, diags, fmt.Errorf("dsl: %s: %d error(s)", name, n)
	}
	sc, err := Load(f)
	if err != nil {
		return nil, diags, err
	}
	sc.Name, sc.Source = name, src
	return sc, diags, nil
}

// Load builds the comdes system from a checked file. Constructor
// failures on a file that checked clean are checker bugs; they surface
// as plain errors rather than diagnostics.
func Load(f *File) (*Scenario, error) {
	sys := comdes.NewSystem(f.Name)
	for _, a := range f.Actors {
		actor, err := buildActor(f, a)
		if err != nil {
			return nil, err
		}
		if err := sys.AddActor(actor); err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
		if a.Node != "" {
			if err := sys.Place(a.Name, a.Node); err != nil {
				return nil, fmt.Errorf("dsl: %w", err)
			}
		}
	}
	for _, b := range f.Binds {
		if err := sys.Bind(b.Signal, b.FromActor, b.FromPort, b.ToActor, b.ToPort); err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("dsl: %w", err)
	}

	sc := &Scenario{File: f, Sys: sys}
	for _, d := range f.Drives {
		e, err := expr.Parse(d.Expr)
		if err != nil {
			return nil, fmt.Errorf("dsl: drive %s.%s: %w", d.Actor, d.Port, err)
		}
		cd := compiledDrive{actor: d.Actor, port: d.Port, expr: e}
		if sc.Multi() {
			cd.node = sys.NodeOf(d.Actor)
		}
		sc.drives = append(sc.drives, cd)
	}
	return sc, nil
}

// FromSystem is the scenario a built-in model or XML system already is:
// its one declaration is `environment standard`, so the board, the
// environment and the cluster are the standard ones for its name.
func FromSystem(sys *comdes.System) *Scenario {
	return &Scenario{
		Name: sys.Name(),
		File: &File{Name: sys.Name(), Env: &EnvDecl{Standard: true}},
		Sys:  sys,
	}
}

func buildPorts(decls []PortDecl) []comdes.Port {
	if len(decls) == 0 {
		return nil
	}
	out := make([]comdes.Port, 0, len(decls))
	for _, p := range decls {
		k, ok := portKindOf(p.Kind)
		if !ok {
			k = value.Float
		}
		out = append(out, comdes.Port{Name: p.Name, Kind: k})
	}
	return out
}

func buildActor(f *File, a *ActorDecl) (*comdes.Actor, error) {
	if a.Net == nil {
		return nil, fmt.Errorf("dsl: actor %q has no network", a.Name)
	}
	net, err := buildNetwork(f, a.Net)
	if err != nil {
		return nil, err
	}
	return comdes.NewActor(a.Name, net, comdes.TaskSpec{
		PeriodNs:   a.PeriodNs,
		OffsetNs:   a.OffsetNs,
		DeadlineNs: a.DeadlineNs,
		Priority:   int(a.Priority),
	})
}

func buildNetwork(f *File, n *NetworkDecl) (*comdes.Network, error) {
	net := comdes.NewNetwork(n.Name, buildPorts(n.Inputs), buildPorts(n.Outputs))
	for _, b := range n.Blocks {
		blk, err := buildBlock(f, b)
		if err != nil {
			return nil, err
		}
		if err := net.Add(blk); err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
	}
	for _, w := range n.Wires {
		if err := net.Connect(w.FromBlock, w.FromPort, w.ToBlock, w.ToPort); err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
	}
	return net, nil
}

func buildBlock(f *File, b BlockDecl) (comdes.Block, error) {
	switch d := b.(type) {
	case *ComponentDecl:
		blk, err := comdes.NewComponent(d.Kind, d.Name, paramMap(d.Params))
		if err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
		return blk, nil

	case *MachineDecl:
		cfg := comdes.SMConfig{
			Name:    d.Name,
			Inputs:  buildPorts(d.Inputs),
			Outputs: buildPorts(d.Outputs),
			Initial: d.Initial,
		}
		for _, st := range d.States {
			cfg.States = append(cfg.States, comdes.SMStateDef{Name: st.Name, Entry: assignMap(st.Entries)})
		}
		for _, tr := range d.Transitions {
			cfg.Transitions = append(cfg.Transitions, comdes.SMTransitionDef{
				Name: tr.Name, From: tr.From, To: tr.To, Guard: tr.Guard,
				Actions: assignMap(tr.Actions),
			})
		}
		blk, err := comdes.NewStateMachineFB(cfg)
		if err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
		return blk, nil

	case *ModalDecl:
		var modes []comdes.ModalMode
		for _, md := range d.Modes {
			sel, errMsg := resolveMode(f, md)
			if errMsg != "" {
				return nil, fmt.Errorf("dsl: modal %s: %s", d.Name, errMsg)
			}
			blk, err := buildBlock(f, md.Block)
			if err != nil {
				return nil, err
			}
			modes = append(modes, comdes.ModalMode{Selector: sel, Block: blk})
		}
		var fallback comdes.Block
		if d.Fallback != nil {
			var err error
			if fallback, err = buildBlock(f, d.Fallback); err != nil {
				return nil, err
			}
		}
		blk, err := comdes.NewModalFB(d.Name, d.Selector,
			buildPorts(d.Inputs), buildPorts(d.Outputs), modes, fallback)
		if err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
		return blk, nil

	case *CompositeDecl:
		inner := comdes.NewNetwork(d.Name, buildPorts(d.Inputs), buildPorts(d.Outputs))
		for _, cb := range d.Blocks {
			blk, err := buildBlock(f, cb)
			if err != nil {
				return nil, err
			}
			if err := inner.Add(blk); err != nil {
				return nil, fmt.Errorf("dsl: %w", err)
			}
		}
		for _, w := range d.Wires {
			if err := inner.Connect(w.FromBlock, w.FromPort, w.ToBlock, w.ToPort); err != nil {
				return nil, fmt.Errorf("dsl: %w", err)
			}
		}
		blk, err := comdes.NewCompositeFB(inner)
		if err != nil {
			return nil, fmt.Errorf("dsl: %w", err)
		}
		return blk, nil
	}
	return nil, fmt.Errorf("dsl: unknown block declaration %T", b)
}

func assignMap(as []AssignDecl) map[string]string {
	if len(as) == 0 {
		return nil
	}
	m := make(map[string]string, len(as))
	for _, a := range as {
		m[a.Port] = a.Src
	}
	return m
}

// RunNs returns the declared scenario horizon (0 when the file has no
// run declaration; callers pick their own budget then).
func (s *Scenario) RunNs() uint64 { return s.File.RunNs }

// Multi reports whether the scenario places actors on multiple nodes
// (debugs as a cluster).
func (s *Scenario) Multi() bool { return len(s.Sys.Nodes()) > 1 }

// Debug builds the session the scenario describes: a one-node system on
// one board over tp (repro.Debug), a placed multi-node system on a TDMA
// cluster over every node's active interface (repro.DebugCluster). prog,
// when non-nil, is the one-node program from Program shared across
// sessions; a cluster compiles per node and ignores it.
func (s *Scenario) Debug(tp repro.Transport, prog *codegen.Program) (*repro.Debugger, error) {
	if !s.Multi() {
		cfg := s.DebugConfig()
		cfg.Transport, cfg.Program = tp, prog
		return repro.Debug(s.Sys, cfg)
	}
	if tp != repro.Active {
		return nil, fmt.Errorf("dsl: multi-node system %q debugs over every node's active interface", s.Sys.Name())
	}
	cfg := repro.ClusterDebugConfig{Cluster: s.ClusterConfig()}
	if env := s.Environment(); env != nil {
		cfg.Environment = func(now uint64, _ string, b *target.Board) { env(now, b) }
	}
	return repro.DebugCluster(s.Sys, cfg)
}

// Program compiles the program Debug loads on a one-node system, so many
// sessions can share it; nil for a multi-node system.
func (s *Scenario) Program() (*codegen.Program, error) {
	if s.Multi() {
		return nil, nil
	}
	return repro.CompileFor(s.Sys, s.DebugConfig())
}

// DebugConfig assembles the single-board configuration the scenario
// implies: the declared board (or the model-standard one), the standard
// environment when declared, and every drive as a pre-latch stimulus.
// Matching the CLI defaults is what makes a ported scenario's trace
// byte-identical to its Go constructor's.
func (s *Scenario) DebugConfig() repro.DebugConfig {
	return repro.DebugConfig{
		Transport:   repro.Active,
		Board:       s.BoardConfig(),
		Environment: s.Environment(),
	}
}

// BoardConfig resolves the board declaration (falling back to the
// standard config for the system name, exactly like `gmdf -model`).
func (s *Scenario) BoardConfig() target.Config {
	b := s.File.Board
	if b == nil {
		return repro.StandardBoardConfig(s.Sys.Name())
	}
	cfg := target.Config{CPUHz: b.CPUHz, Baud: int(b.Baud)}
	if b.Sched == "fixed_priority" {
		cfg.Sched = dtm.FixedPriority
	}
	return cfg
}

// Environment composes the scenario's stimuli for every board of its
// session, one node or many. On a one-node system the standard
// environment for the system name (when `environment standard` is
// declared) runs first; the standard environments are single-board
// plants. Then every drive expression, evaluated over t (seconds, float)
// and now (nanoseconds, int), overwrites its target input on the board
// the actor runs on: the one board, or the board whose name is the
// actor's node. Nil when the scenario declares no stimuli at all.
func (s *Scenario) Environment() func(now uint64, b *target.Board) {
	var std func(now uint64, b *target.Board)
	if s.File.Env != nil && s.File.Env.Standard && !s.Multi() {
		std = repro.StandardEnvironment(s.Sys.Name())
	}
	if std == nil && len(s.drives) == 0 {
		return nil
	}
	drives := s.drives
	return func(now uint64, b *target.Board) {
		if std != nil {
			std(now, b)
		}
		applyDrives(drives, now, b)
	}
}

func applyDrives(drives []compiledDrive, now uint64, b *target.Board) {
	if len(drives) == 0 {
		return
	}
	env := expr.MapEnv{
		"t":   value.F(float64(now) / 1e9),
		"now": value.I(int64(now)),
	}
	for _, d := range drives {
		if d.node != "" && d.node != b.Name {
			continue
		}
		v, err := expr.Eval(d.expr, env)
		if err != nil {
			continue // checked expressions over t/now cannot fail at runtime
		}
		_ = b.WriteInput(d.actor, d.port, v)
	}
}

// ClusterConfig assembles the multi-node configuration: the standard
// TDMA cluster for the system's nodes, with the declared bus schedule
// and board parameters layered over it.
func (s *Scenario) ClusterConfig() target.ClusterConfig {
	cfg := repro.StandardClusterConfig(s.Sys.Nodes(), 0)
	if b := s.File.Board; b != nil {
		if b.CPUHz != 0 {
			cfg.Board.CPUHz = b.CPUHz
		}
		if b.Baud != 0 {
			cfg.Board.Baud = int(b.Baud)
		}
		if b.Sched == "fixed_priority" {
			cfg.Board.Sched = dtm.FixedPriority
		}
	}
	if bus := s.File.Bus; bus != nil {
		sched := &dtm.BusSchedule{
			GapNs:    bus.GapNs,
			JitterNs: bus.JitterNs,
		}
		if bus.HasLoss {
			sched.LossPerMille = uint32(bus.LossPerMille)
		}
		if bus.HasSeed {
			sched.Seed = uint64(bus.Seed)
		}
		for _, sl := range bus.Slots {
			sched.Slots = append(sched.Slots, dtm.BusSlot{Owner: sl.Owner, LenNs: sl.LenNs})
		}
		cfg.Bus = sched
	}
	return cfg
}
