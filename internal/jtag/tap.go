// Package jtag simulates the IEEE 1149.1 (JTAG) debug infrastructure the
// paper proposes as its *passive* command interface. The paper's argument:
// with JTAG "real-time information/data is in fact extracted passively ...
// a command interface is established without any code modifications",
// eliminating the overhead of the active (instrumented) solution.
//
// The package provides three layers:
//
//   - TAP: a bit-accurate 16-state Test Access Port controller with IR/DR
//     scan chains, the standard BYPASS and IDCODE instructions, and a
//     vendor DEBUG extension (address + data registers) giving the probe
//     direct RAM access — the mechanism real on-chip debug units
//     (e.g. ARM EmbeddedICE) expose. There is no boundary-scan
//     register; every other instruction behaves as BYPASS.
//   - Probe: the host-side USB/PCI adapter that drives TCK/TMS/TDI and
//     accounts for host-side transaction latency. Crucially, none of its
//     operations consume target CPU cycles.
//   - Watcher: the monitoring engine of the paper's Fig. 2: the user
//     selects monitored variables ("variable s is critical if it saves
//     state information"), the watcher polls them over the probe, and
//     value changes become protocol events for the GDM.
package jtag

import "fmt"

// State is a TAP controller state (IEEE 1149.1 figure 6-1).
type State uint8

// The sixteen TAP states.
const (
	TestLogicReset State = iota
	RunTestIdle
	SelectDRScan
	CaptureDR
	ShiftDR
	Exit1DR
	PauseDR
	Exit2DR
	UpdateDR
	SelectIRScan
	CaptureIR
	ShiftIR
	Exit1IR
	PauseIR
	Exit2IR
	UpdateIR
)

var stateNames = [...]string{
	"Test-Logic-Reset", "Run-Test/Idle", "Select-DR-Scan", "Capture-DR",
	"Shift-DR", "Exit1-DR", "Pause-DR", "Exit2-DR", "Update-DR",
	"Select-IR-Scan", "Capture-IR", "Shift-IR", "Exit1-IR", "Pause-IR",
	"Exit2-IR", "Update-IR",
}

// String returns the standard state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", s)
}

// Next returns the successor state for one TCK rising edge with the given
// TMS level — the standard IEEE 1149.1 state table.
func (s State) Next(tms bool) State {
	if tms {
		switch s {
		case TestLogicReset:
			return TestLogicReset
		case RunTestIdle, UpdateDR, UpdateIR:
			return SelectDRScan
		case SelectDRScan:
			return SelectIRScan
		case CaptureDR, ShiftDR:
			return Exit1DR
		case Exit1DR, Exit2DR:
			return UpdateDR
		case PauseDR:
			return Exit2DR
		case SelectIRScan:
			return TestLogicReset
		case CaptureIR, ShiftIR:
			return Exit1IR
		case Exit1IR, Exit2IR:
			return UpdateIR
		case PauseIR:
			return Exit2IR
		}
	}
	switch s {
	case TestLogicReset, RunTestIdle, UpdateDR, UpdateIR:
		return RunTestIdle
	case SelectDRScan:
		return CaptureDR
	case CaptureDR, ShiftDR, Exit2DR:
		return ShiftDR
	case Exit1DR, PauseDR:
		return PauseDR
	case SelectIRScan:
		return CaptureIR
	case CaptureIR, ShiftIR, Exit2IR:
		return ShiftIR
	case Exit1IR, PauseIR:
		return PauseIR
	}
	return TestLogicReset
}

// Instruction register encodings (4-bit IR).
const (
	IRIdcode  uint8 = 0x1
	IRDbgAddr uint8 = 0x8 // vendor: debug address/control register
	IRDbgData uint8 = 0x9 // vendor: debug data register
	IRBypass  uint8 = 0xF

	irLen = 4
)

// Debug address register flags (low bits of the 40-bit DBGADDR register:
// 32 address bits + 8 flag bits above them).
const (
	DbgFlagWrite   = 1 << 0 // UpdateDR writes the data register to memory
	DbgFlagAutoInc = 1 << 1 // address advances by 8 after each data access
)

// Memory is the TAP's view of target RAM. The board wires its RAM here;
// accesses cost zero target cycles (hardware debug port semantics).
type Memory interface {
	ReadMem(addr uint32, p []byte)
	WriteMem(addr uint32, p []byte)
}

// TAP is the on-chip test access port.
type TAP struct {
	state State
	ir    uint8
	irSh  uint8

	idcode uint32

	// dr holds the active data register during Shift-DR; its width depends
	// on the current instruction.
	dr    uint64
	drLen int

	dbgAddr  uint32
	dbgFlags uint8

	mem Memory

	// TCKCount tallies clock cycles for probe-side time accounting.
	TCKCount uint64
}

// NewTAP creates a TAP with the given IDCODE and RAM port.
func NewTAP(idcode uint32, mem Memory) *TAP {
	return &TAP{state: TestLogicReset, ir: IRIdcode, idcode: idcode, mem: mem}
}

// State returns the current controller state.
func (t *TAP) State() State { return t.state }

// IR returns the current instruction.
func (t *TAP) IR() uint8 { return t.ir }

// Clock advances the TAP by one TCK rising edge, sampling TMS and TDI, and
// returns TDO. Shifting happens while in a Shift state (the clock that
// exits the state with TMS=1 still shifts the final bit, matching how
// probes stream scans).
func (t *TAP) Clock(tms, tdi bool) bool {
	tdo := false
	switch t.state {
	case ShiftIR:
		tdo = t.irSh&1 != 0
		t.irSh >>= 1
		if tdi {
			t.irSh |= 1 << (irLen - 1)
		}
	case ShiftDR:
		tdo = t.dr&1 != 0
		t.dr >>= 1
		if tdi {
			t.dr |= 1 << (t.drLen - 1)
		}
	}

	next := t.state.Next(tms)
	// Entry actions.
	switch next {
	case TestLogicReset:
		t.ir = IRIdcode // reset selects IDCODE per the standard
	case CaptureIR:
		t.irSh = 0b0001 // fixed capture pattern, LSBs "01"
	case CaptureDR:
		t.captureDR()
	case UpdateIR:
		t.ir = t.irSh & (1<<irLen - 1)
	case UpdateDR:
		t.updateDR()
	}
	t.state = next
	t.TCKCount++
	return tdo
}

func (t *TAP) captureDR() {
	switch t.ir {
	case IRIdcode:
		t.dr = uint64(t.idcode)
		t.drLen = 32
	case IRBypass:
		t.dr = 0
		t.drLen = 1
	case IRDbgAddr:
		t.dr = uint64(t.dbgFlags)<<32 | uint64(t.dbgAddr)
		t.drLen = 40
	case IRDbgData:
		var buf [8]byte
		if t.mem != nil {
			t.mem.ReadMem(t.dbgAddr, buf[:])
		}
		t.dr = leUint64(buf[:])
		t.drLen = 64
	default:
		// Unknown instructions behave as BYPASS per the standard.
		t.dr = 0
		t.drLen = 1
	}
}

func (t *TAP) updateDR() {
	switch t.ir {
	case IRDbgAddr:
		t.dbgAddr = uint32(t.dr)
		t.dbgFlags = uint8(t.dr >> 32)
	case IRDbgData:
		if t.mem != nil && t.dbgFlags&DbgFlagWrite != 0 {
			var buf [8]byte
			putLeUint64(buf[:], t.dr)
			t.mem.WriteMem(t.dbgAddr, buf[:])
		}
		if t.dbgFlags&DbgFlagAutoInc != 0 {
			t.dbgAddr += 8
		}
	}
}

func leUint64(p []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(p[i])
	}
	return v
}

func putLeUint64(p []byte, v uint64) {
	for i := 0; i < 8; i++ {
		p[i] = byte(v >> (8 * i))
	}
}
