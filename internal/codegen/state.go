package codegen

import (
	"fmt"

	"repro/internal/value"
)

// Explicit-state forms of the VM: everything a Machine carries between
// instructions — program counter, operand stack, halt flag and the
// accumulated ExecResult (cycles, steps, pending emits, break bookkeeping)
// — surfaced as a copyable, JSON-serializable value. A release interrupted
// mid-body (preempted, suspended at a breakpoint, or simply mid-slice) is
// fully described by one MachineState plus the unit body it runs; restoring
// it onto a fresh Machine resumes at the exact instruction boundary.

// EmitState is the portable form of one pending EmitRef.
type EmitState struct {
	Template int           `json:"template"`
	Value    value.Encoded `json:"value,omitempty"`
	HasValue bool          `json:"hasValue,omitempty"`
}

// ExecResultState is the portable form of an ExecResult.
type ExecResultState struct {
	Cycles      uint64      `json:"cycles"`
	Steps       uint64      `json:"steps"`
	CheckCycles uint64      `json:"checkCycles,omitempty"`
	BreakPC     int         `json:"breakPC"`
	Emits       []EmitState `json:"emits,omitempty"`
}

// MachineState is the complete execution state of one Machine, minus the
// code it runs (identified externally — the board names the unit whose
// body the machine executes). Snapshot/Restore round-trip it exactly.
type MachineState struct {
	PC     int             `json:"pc"`
	Halted bool            `json:"halted,omitempty"`
	Stack  []value.Encoded `json:"stack,omitempty"`
	Res    ExecResultState `json:"res"`
}

// EncodeExecResult deep-copies an ExecResult into its portable form.
func EncodeExecResult(r ExecResult) ExecResultState {
	st := ExecResultState{
		Cycles: r.Cycles, Steps: r.Steps,
		CheckCycles: r.CheckCycles, BreakPC: r.BreakPC,
	}
	if len(r.Emits) > 0 {
		st.Emits = make([]EmitState, len(r.Emits))
		for i, e := range r.Emits {
			st.Emits[i] = EmitState{Template: e.Template, Value: value.Encode(e.Value), HasValue: e.HasValue}
		}
	}
	return st
}

// DecodeExecResult converts the portable form back to a live ExecResult.
func DecodeExecResult(st ExecResultState) (ExecResult, error) {
	r := ExecResult{
		Cycles: st.Cycles, Steps: st.Steps,
		CheckCycles: st.CheckCycles, BreakPC: st.BreakPC,
	}
	if len(st.Emits) > 0 {
		r.Emits = make([]EmitRef, len(st.Emits))
		for i, e := range st.Emits {
			v, err := value.Decode(e.Value)
			if err != nil {
				return ExecResult{}, fmt.Errorf("codegen: emit %d: %w", i, err)
			}
			r.Emits[i] = EmitRef{Template: e.Template, Value: v, HasValue: e.HasValue}
		}
	}
	return r, nil
}

// Snapshot captures the machine's complete execution state. The returned
// state shares nothing with the machine: continuing to run the machine
// does not mutate an earlier snapshot.
func (m *Machine) Snapshot() MachineState {
	st := MachineState{PC: m.PC, Halted: m.halted, Res: EncodeExecResult(m.Res)}
	if len(m.stack) > 0 {
		st.Stack = make([]value.Encoded, len(m.stack))
		for i, v := range m.stack {
			st.Stack[i] = value.Encode(v)
		}
	}
	return st
}

// Restore rewinds the machine to a previously captured state. The machine
// keeps its Program, Code and Bus (restore binds state to code externally,
// by unit name); stack and emit buffers are rebuilt from the snapshot, so
// a restored machine never aliases the snapshot or the machine it was
// taken from.
func (m *Machine) Restore(st MachineState) error {
	res, err := DecodeExecResult(st.Res)
	if err != nil {
		return err
	}
	stack := m.stack[:0]
	for i, e := range st.Stack {
		v, err := value.Decode(e)
		if err != nil {
			return fmt.Errorf("codegen: stack slot %d: %w", i, err)
		}
		stack = append(stack, v)
	}
	m.PC = st.PC
	m.halted = st.Halted
	m.stack = stack
	m.Res = res
	return nil
}
