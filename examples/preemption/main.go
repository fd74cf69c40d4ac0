// Preemption: the preemptive fixed-priority board scheduler in action,
// on a workload the cooperative model cannot express — a low-priority
// actor that provably misses its deadline *only because* a high-priority
// actor keeps preempting it.
//
// The models.PriorityLoad system pairs a "hog" actor (priority 10, ~804 µs
// of body every 1 ms on the example's 1 MHz core) with a "lowly" actor
// (priority 1, ~600 µs of body, 2 ms deadline). Under dtm.FixedPriority
// the lowly release only gets the CPU in the gaps the hog leaves, so every
// release blows its deadline; run cooperatively the very same binary meets
// every deadline, because each release executes to completion at its
// release instant.
//
// The scheduler announces every incident on the debugger's command
// interface: EvPreempt at each preemption boundary and EvDeadlineMiss at
// each latch-instant overrun — and mirrors both into the kernel's
// __preempts/__misses RAM counters, where on-target breakpoint conditions
// and the passive JTAG watch engine can see them.
//
// The output is fully deterministic (virtual time only); CI runs this
// example twice and diffs the streams.
//
//	go run ./examples/preemption
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/dtm"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/models"
)

func debugger(policy dtm.Policy) (*repro.Debugger, error) {
	sys, err := models.PriorityLoad()
	if err != nil {
		return nil, err
	}
	// 2 Mbaud keeps the dense incident stream (one EvPreempt per
	// millisecond) from saturating the line; at the default 115200 the
	// frame-atomic TX FIFO would drop most of them — measurably, see
	// Stats.FramesDropped and EvOverrun.
	return repro.Debug(sys, repro.DebugConfig{
		Transport: repro.Active,
		Board:     target.Config{CPUHz: 1_000_000, Sched: policy, Baud: 2_000_000},
	})
}

func taskTable(out io.Writer, dbg *repro.Debugger) {
	for _, t := range dbg.Board.Tasks() {
		fmt.Fprintf(out, "  task %-5s prio=%-2d releases=%-3d misses=%-3d preemptions=%-3d worst-response=%.3f ms\n",
			t.Name, t.Priority, t.Releases, t.DeadlineMisses, t.Preemptions,
			float64(t.WorstResponseNs)/1e6)
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "preemption:", err)
		os.Exit(1)
	}
}

// run is the whole example behind an error return, so a test pins its
// output without forking.
func run(out io.Writer) error {
	// ---- act 1: preemptive fixed-priority scheduling ----
	fmt.Fprintln(out, "== preemptive fixed-priority (dtm.FixedPriority, 1 MHz core) ==")
	fp, err := debugger(dtm.FixedPriority)
	if err != nil {
		return err
	}
	if err := fp.Run(40 * time.Millisecond); err != nil {
		return err
	}
	taskTable(out, fp)
	fmt.Fprintf(out, "  context switches: %d\n", fp.Board.CtxSwitches())

	// The scheduling incidents are ordinary model-level events on the wire.
	preempts := fp.Session.Trace.OfType(protocol.EvPreempt)
	misses := fp.Session.Trace.OfType(protocol.EvDeadlineMiss)
	fmt.Fprintf(out, "  on the wire: %d EvPreempt, %d EvDeadlineMiss\n", preempts.Len(), misses.Len())
	for i, r := range preempts.Records {
		if i >= 3 {
			fmt.Fprintf(out, "  ... %d more preemptions\n", preempts.Len()-3)
			break
		}
		fmt.Fprintf(out, "  %s\n", r.Event)
	}
	for i, r := range misses.Records {
		if i >= 3 {
			fmt.Fprintf(out, "  ... %d more misses\n", misses.Len()-3)
			break
		}
		fmt.Fprintf(out, "  %s\n", r.Event)
	}

	// ---- act 2: the same binary, cooperative ----
	fmt.Fprintln(out, "\n== cooperative (same model, same core) ==")
	co, err := debugger(dtm.Cooperative)
	if err != nil {
		return err
	}
	if err := co.Run(40 * time.Millisecond); err != nil {
		return err
	}
	taskTable(out, co)
	fmt.Fprintln(out, "  every deadline met: each release runs at its release instant, unpreempted")

	// ---- act 3: break on the miss itself, on the target ----
	fmt.Fprintln(out, "\n== on-target breakpoint on the deadline miss ==")
	bp, err := debugger(dtm.FixedPriority)
	if err != nil {
		return err
	}
	if err := bp.BreakOnDeadlineMiss("dl-miss", "lowly"); err != nil {
		return err
	}
	fmt.Fprintf(out, "armed on target: %v (condition over the kernel's lowly.__misses counter)\n",
		bp.Session.Breakpoints()[0].OnTarget())
	if err := bp.Run(40 * time.Millisecond); err != nil {
		return err
	}
	if bp.Session.LastBreak == nil {
		return errors.New("deadline-miss breakpoint never hit")
	}
	var hitAt uint64
	for _, r := range bp.Session.Trace.OfType(protocol.EvBreak).Records {
		hitAt = r.Event.Time
	}
	fmt.Fprintf(out, "hit %q: board halted at %.3f ms — the latch instant of the first missed release\n",
		bp.Session.LastBreak.ID, float64(hitAt)/1e6)
	fmt.Fprintf(out, "board halted: %v, lowly misses so far: %d\n",
		bp.Board.Halted(), bp.Board.Tasks()[1].DeadlineMisses)
	return nil
}
