// Package workbench reproduces the tool shell of the GMDF prototype: the
// five-step execution flow of the paper's Fig. 6:
//
//  1. start plug-in, check input prerequisites
//  2. select input meta-model and model files
//  3. abstraction guide: pair meta-model elements with GDM patterns
//  4. command setting: bind commands to reaction types; initial GDM file
//  5. GDM created, communication channel established, debugging
//
// The workbench is headless: every interaction the Eclipse wizard offers
// is a method call, and the plug-in shell around it is left to the IDE.
// Step 5 is Attach, which hands back the live session; debugging it
// (breakpoints, stepping, rewind) goes through repro.Debugger, the one
// debugger facade.
package workbench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metamodel"
)

// Step is the wizard position.
type Step uint8

// The five steps of Fig. 6.
const (
	StepInputSelection Step = iota + 1
	StepAbstraction
	StepCommandSetup
	StepGDMReady
	StepDebugging
)

// String names the step as in the figure.
func (s Step) String() string {
	switch s {
	case StepInputSelection:
		return "1:input-selection"
	case StepAbstraction:
		return "2:abstraction-guide"
	case StepCommandSetup:
		return "3:command-setting"
	case StepGDMReady:
		return "4:gdm-created"
	case StepDebugging:
		return "5:debugging"
	default:
		return fmt.Sprintf("Step(%d)", s)
	}
}

// Wizard drives one debugging setup end to end.
type Wizard struct {
	step    Step
	meta    *metamodel.Metamodel
	model   *metamodel.Model
	mapping *core.Mapping
	gdm     *core.GDM
	session *engine.Session

	// Log lists the completed steps in order, for the E6 table.
	Log []Step
}

// NewWizard starts at step 1 (prerequisites check happens in
// SelectInputs).
func NewWizard() *Wizard {
	return &Wizard{step: StepInputSelection, mapping: core.NewMapping()}
}

// Step returns the current wizard position.
func (w *Wizard) Step() Step { return w.step }

func (w *Wizard) stamp() { w.Log = append(w.Log, w.step) }

func (w *Wizard) requireStep(s Step) error {
	if w.step != s {
		return fmt.Errorf("workbench: action belongs to step %v, wizard is at %v", s, w.step)
	}
	return nil
}

// SelectInputs is Fig. 6 step 2: supply the input meta-model and model.
// The model is validated against the meta-model (the prerequisite check).
func (w *Wizard) SelectInputs(meta *metamodel.Metamodel, model *metamodel.Model) error {
	if err := w.requireStep(StepInputSelection); err != nil {
		return err
	}
	if meta == nil || model == nil {
		return fmt.Errorf("workbench: meta-model and model are required inputs")
	}
	if model.Meta != meta {
		return fmt.Errorf("workbench: model does not instantiate the supplied meta-model")
	}
	if err := meta.Validate(); err != nil {
		return err
	}
	if err := model.Validate(); err != nil {
		return err
	}
	w.meta, w.model = meta, model
	w.stamp()
	w.step = StepAbstraction
	return nil
}

// Pair records one pairing in the abstraction guide (Fig. 4).
func (w *Wizard) Pair(rule core.Rule) error {
	if err := w.requireStep(StepAbstraction); err != nil {
		return err
	}
	if w.meta.Class(rule.MetaClass) == nil {
		return fmt.Errorf("workbench: meta-model has no class %q", rule.MetaClass)
	}
	return w.mapping.Pair(rule)
}

// UseMapping replaces the whole pairing list (loading a stored mapping).
func (w *Wizard) UseMapping(m *core.Mapping) error {
	if err := w.requireStep(StepAbstraction); err != nil {
		return err
	}
	if m == nil || m.Len() == 0 {
		return fmt.Errorf("workbench: empty mapping")
	}
	w.mapping = m
	return nil
}

// FinishAbstraction is the "ABSTRACTION FINISHED" button: it runs the
// abstraction and moves to command setting.
func (w *Wizard) FinishAbstraction() error {
	if err := w.requireStep(StepAbstraction); err != nil {
		return err
	}
	g, err := core.Abstract(w.model, w.mapping)
	if err != nil {
		return err
	}
	w.gdm = g
	w.stamp()
	w.step = StepCommandSetup
	return nil
}

// BindCommand adds one command→reaction row (Fig. 6 step 4).
func (w *Wizard) BindCommand(b core.Binding) error {
	if err := w.requireStep(StepCommandSetup); err != nil {
		return err
	}
	return w.gdm.Bind(b)
}

// FinishCommandSetup freezes the GDM (the "initial GDM file").
func (w *Wizard) FinishCommandSetup() error {
	if err := w.requireStep(StepCommandSetup); err != nil {
		return err
	}
	if len(w.gdm.Bindings()) == 0 {
		return fmt.Errorf("workbench: bind at least one command before finishing")
	}
	w.stamp()
	w.step = StepGDMReady
	return nil
}

// GDM returns the created debugger model (available from step 4).
func (w *Wizard) GDM() *core.GDM { return w.gdm }

// Attach establishes the communication channel and enters debugging
// (Fig. 6 step 5): the returned session is live.
func (w *Wizard) Attach(target engine.TargetControl, sources ...engine.EventSource) (*engine.Session, error) {
	if err := w.requireStep(StepGDMReady); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("workbench: a communication channel (event source) is required")
	}
	s := engine.NewSession(w.gdm, target)
	for _, src := range sources {
		s.AddSource(src)
	}
	w.session = s
	w.stamp()
	w.step = StepDebugging
	return s, nil
}

// Session returns the live session (step 5).
func (w *Wizard) Session() *engine.Session { return w.session }
