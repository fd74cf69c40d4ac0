// Package baseline implements the comparison system from the paper's
// related-work section (Sec. IV), so the reproduction can measure GMDF
// against it rather than argue qualitatively:
//
//   - CodeDebugger — a GDB-like code-level debugger over the generated
//     program: single-instruction stepping and symbol inspection. "In
//     spite of advanced visualization techniques, DDD debugging is
//     actually done at the coding level."
package baseline

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/value"
)

// CodeDebugger is the GDB-like baseline: it executes a compiled unit
// instruction by instruction and counts every user-visible step — the
// currency of the E10 comparison.
type CodeDebugger struct {
	Prog *codegen.Program
	Bus  codegen.Bus

	// Counters of user-facing debugging work.
	InstructionsStepped uint64
	Inspections         uint64
}

// NewCodeDebugger attaches a code-level debugger to a program and bus.
func NewCodeDebugger(p *codegen.Program, bus codegen.Bus) *CodeDebugger {
	return &CodeDebugger{Prog: p, Bus: bus}
}

// Inspect reads a symbol by name (GDB "print"), counting the inspection.
func (d *CodeDebugger) Inspect(symbol string) (value.Value, error) {
	d.Inspections++
	idx, ok := d.Prog.Symbols.Index(symbol)
	if !ok {
		return value.Value{}, fmt.Errorf("baseline: unknown symbol %q", symbol)
	}
	return d.Bus.LoadSym(idx)
}

// RunUnit executes a unit body to completion (GDB "continue"), counting
// every instruction it steps.
func (d *CodeDebugger) RunUnit(u *codegen.Unit) error {
	m := codegen.NewMachine(d.Prog, u.Body, d.Bus)
	for !m.Done() {
		if _, err := d.StepInstruction(m); err != nil {
			return err
		}
	}
	return nil
}

// StepInstruction executes exactly one instruction (GDB "stepi").
func (d *CodeDebugger) StepInstruction(m *codegen.Machine) (bool, error) {
	more, err := m.Step()
	if err == nil {
		d.InstructionsStepped++
	}
	return more, err
}
