// Package protocol defines the GMDF command interface: the wire vocabulary
// spoken between the executable code on the embedded target (the client)
// and the Graphical Debugger Model server (Fig. 2 B of the paper).
//
// Two message directions exist:
//
//   - Event (target → GDM): the "commands" in the paper's terminology —
//     notifications the instrumented code (active solution) or the JTAG
//     watch engine (passive solution) sends at model-significant execution
//     points: state entries, transitions, signal updates, task start and
//     deadline instants.
//   - Instruction (GDM → target): debugger control — pause, resume, step,
//     breakpoint arming, variable reads/writes.
//
// Framing is byte-oriented so it can cross the RS-232 UART byte stream:
//
//	SOF(0x7E) | type(1) | seq(2 BE) | time(8 BE ns) | len(2 BE) | payload | crc16(2 BE)
//
// The CRC-16/CCITT-FALSE covers everything between SOF and the CRC field.
// The streaming decoder resynchronises on the next SOF after any damaged
// frame, so a debugger attaching mid-stream recovers (tested by property).
package protocol

import "fmt"

// SOF is the start-of-frame marker.
const SOF = 0x7E

// MaxPayload bounds the variable part of one frame.
const MaxPayload = 1024

// EventType enumerates target → GDM notifications.
type EventType uint8

// Event types. EvWatch is produced host-side by the passive JTAG watch
// engine but shares the vocabulary so the GDM is transport-agnostic.
const (
	EvInvalid      EventType = iota
	EvHello                  // target boot/attach announcement; Source = program name
	EvStateEnter             // Source = state machine instance, Arg1 = state name
	EvTransition             // Source = machine, Arg1 = from, Arg2 = to
	EvSignal                 // Source = signal name, Value = new value
	EvTaskStart              // Source = task name (input latch instant)
	EvTaskDeadline           // Source = task name (output latch instant)
	EvBreakHit               // Source = breakpoint id; host-side halt marker (after the frame crossed the line)
	EvHalted                 // target confirms pause
	EvResumed                // target confirms resume
	EvWatch                  // Source = watched symbol, Arg1 = old, Arg2 = new, Value = new numeric
	EvBreak                  // target-resident breakpoint hit: Source = bp id, Arg1 = triggering symbol, Value = its value; target halted at the instruction
	EvStepped                // target-resident step completed: Source = board, Arg1 = model event source; target halted
	EvOverrun                // target-side UART drop counter: Source = board, Value = cumulative frames dropped
	EvPreempt                // scheduler preemption: Source = preempted task, Arg1 = preempting task, Value = cumulative preemptions
	EvDeadlineMiss           // deadline overrun, stamped at the latch instant: Source = task, Value = cumulative misses
	EvBusSlot                // TDMA bus departure: Source = sending node, Arg1 = signal, Value = global slot index
	EvFrameDropped           // TDMA bus loss, stamped at the departure slot: Source = sending node, Arg1 = signal, Value = node's cumulative drops
)

// String names the event type for traces and logs.
func (t EventType) String() string {
	switch t {
	case EvHello:
		return "Hello"
	case EvStateEnter:
		return "StateEnter"
	case EvTransition:
		return "Transition"
	case EvSignal:
		return "Signal"
	case EvTaskStart:
		return "TaskStart"
	case EvTaskDeadline:
		return "TaskDeadline"
	case EvBreakHit:
		return "BreakHit"
	case EvHalted:
		return "Halted"
	case EvResumed:
		return "Resumed"
	case EvWatch:
		return "Watch"
	case EvBreak:
		return "Break"
	case EvStepped:
		return "Stepped"
	case EvOverrun:
		return "Overrun"
	case EvPreempt:
		return "Preempt"
	case EvDeadlineMiss:
		return "DeadlineMiss"
	case EvBusSlot:
		return "BusSlot"
	case EvFrameDropped:
		return "FrameDropped"
	default:
		return fmt.Sprintf("EventType(%d)", t)
	}
}

// Event is one target → GDM notification.
type Event struct {
	Type   EventType
	Seq    uint16
	Time   uint64 // target virtual time, nanoseconds
	Source string // originating model element (machine, signal, task, bp id)
	Arg1   string
	Arg2   string
	Value  float64
}

// String renders a compact human-readable form used in traces.
func (e Event) String() string {
	switch e.Type {
	case EvStateEnter:
		return fmt.Sprintf("[%d ns] %s: enter %s", e.Time, e.Source, e.Arg1)
	case EvTransition:
		return fmt.Sprintf("[%d ns] %s: %s -> %s", e.Time, e.Source, e.Arg1, e.Arg2)
	case EvSignal:
		return fmt.Sprintf("[%d ns] %s = %g", e.Time, e.Source, e.Value)
	case EvWatch:
		return fmt.Sprintf("[%d ns] watch %s: %s -> %s", e.Time, e.Source, e.Arg1, e.Arg2)
	case EvBreak:
		return fmt.Sprintf("[%d ns] break %s: %s = %g", e.Time, e.Source, e.Arg1, e.Value)
	case EvOverrun:
		return fmt.Sprintf("[%d ns] overrun %s: %g frames dropped", e.Time, e.Source, e.Value)
	case EvPreempt:
		return fmt.Sprintf("[%d ns] preempt %s by %s (%g total)", e.Time, e.Source, e.Arg1, e.Value)
	case EvDeadlineMiss:
		return fmt.Sprintf("[%d ns] deadline miss %s (%g total)", e.Time, e.Source, e.Value)
	case EvBusSlot:
		return fmt.Sprintf("[%d ns] bus slot %g: %s sends %s", e.Time, e.Value, e.Source, e.Arg1)
	case EvFrameDropped:
		return fmt.Sprintf("[%d ns] bus drop %s: %s (%g total)", e.Time, e.Source, e.Arg1, e.Value)
	default:
		return fmt.Sprintf("[%d ns] %s %s", e.Time, e.Type, e.Source)
	}
}

// InstructionType enumerates GDM → target control messages.
type InstructionType uint8

// Instruction types.
const (
	InInvalid InstructionType = iota
	InPause
	InResume
	InStep       // run until the next model-level event, then halt
	InSetBreak   // Source = breakpoint id, Arg1 = encoded condition
	InClearBreak // Source = breakpoint id
	InReadVar    // Source = symbol name
	InWriteVar   // Source = symbol name, Value = new value
)

// String names the instruction type.
func (t InstructionType) String() string {
	switch t {
	case InPause:
		return "Pause"
	case InResume:
		return "Resume"
	case InStep:
		return "Step"
	case InSetBreak:
		return "SetBreak"
	case InClearBreak:
		return "ClearBreak"
	case InReadVar:
		return "ReadVar"
	case InWriteVar:
		return "WriteVar"
	default:
		return fmt.Sprintf("InstructionType(%d)", t)
	}
}

// Instruction is one GDM → target control message.
type Instruction struct {
	Type   InstructionType
	Seq    uint16
	Source string
	Arg1   string
	Value  float64
}

// crcInit is the CRC-16/CCITT-FALSE initial value.
const crcInit = 0xFFFF

// crcTable holds the CRC-16/CCITT-FALSE remainder of every byte value
// shifted into the high byte, so the checksum advances a byte per lookup.
var crcTable [256]uint16

func init() {
	for i := range crcTable {
		crc := uint16(i) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		crcTable[i] = crc
	}
}

// crcByte folds one byte into a running CRC-16/CCITT-FALSE.
func crcByte(crc uint16, b byte) uint16 { return crc<<8 ^ crcTable[byte(crc>>8)^b] }

// CRC16 computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), the
// checksum traditionally used on serial debug links.
func CRC16(data []byte) uint16 {
	crc := uint16(crcInit)
	for _, b := range data {
		crc = crcByte(crc, b)
	}
	return crc
}
