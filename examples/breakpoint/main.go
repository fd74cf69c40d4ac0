// Breakpoint: the target-resident breakpoint/step agent in action. The
// same model-level breakpoint — "halt when the thermostat enters Heating"
// — is armed three ways:
//
//  1. on-target over the active RS-232 interface: the firmware compiles
//     the condition against its symbol table and halts at the very
//     instruction that stores the new state, before the release's
//     deadline latch publishes anything;
//
//  2. host-side over the passive JTAG interface: the host filters the
//     event trace and can only halt after the notification has crossed
//     the wire — at least one frame-time later;
//
//  3. on a remote cluster node: the InSetBreak instruction travels over
//     that node's own UART and halts that node's board while its
//     siblings keep running on the shared clock.
//
//     go run ./examples/breakpoint
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
	"repro/models"
)

// coolingEnv starts the room warm so the Heating entry happens later and
// deterministically (the facade environment runs at every actor release).
func coolingEnv() func(now uint64, b *target.Board) {
	temp := 25.3
	return func(now uint64, b *target.Board) {
		if p, err := b.ReadOutput("heater", "power"); err == nil && p.Float() > 0 {
			temp += 0.5
		} else {
			temp -= 0.3
		}
		_ = b.WriteInput("heater", "temp", value.F(temp))
		_ = b.WriteInput("heater", "mode", value.I(2))
	}
}

func debugger(tp repro.Transport) (*repro.Debugger, error) {
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		return nil, err
	}
	return repro.Debug(sys, repro.DebugConfig{Transport: tp, Environment: coolingEnv()})
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "breakpoint:", err)
		os.Exit(1)
	}
}

// run is the whole example behind an error return, so a test pins its
// output without forking.
func run(out io.Writer) error {
	// ---- act 1: on-target breakpoint over the active interface ----
	fmt.Fprintln(out, "== on-target breakpoint (active RS-232) ==")
	act, err := debugger(repro.Active)
	if err != nil {
		return err
	}
	if err := act.BreakOnState("bp", "heater.thermostat", "Heating"); err != nil {
		return err
	}
	fmt.Fprintf(out, "armed on target: %v\n", act.Session.Breakpoints()[0].OnTarget())
	if err := act.Run(2 * time.Second); err != nil {
		return err
	}
	var tTarget uint64
	for _, r := range act.Session.Trace.OfType(protocol.EvBreak).Records {
		tTarget = r.Event.Time
	}
	power, _ := act.Board.ReadOutput("heater", "power")
	fmt.Fprintf(out, "hit %q: board halted at %.4f ms (the state-storing instruction)\n",
		act.Session.LastBreak.ID, float64(tTarget)/1e6)
	fmt.Fprintf(out, "deadline latch suppressed: heater.power still %v mid-release\n", power)

	// Step once on the target (run-to-next-model-event), then continue.
	if err := act.StepOnTarget(time.Second); err != nil {
		return err
	}
	fmt.Fprintf(out, "stepped to next model event at %.3f ms, highlights %v\n",
		float64(act.Board.Now())/1e6, act.GDM.HighlightedElements())
	if err := act.Session.ClearBreakpoint("bp"); err != nil {
		return err
	}
	if err := act.Continue(time.Second); err != nil {
		return err
	}
	power, _ = act.Board.ReadOutput("heater", "power")
	fmt.Fprintf(out, "cleared + continued: heater.power now %v\n\n", power)

	// ---- act 2: the same breakpoint host-side over passive JTAG ----
	fmt.Fprintln(out, "== host-side breakpoint (passive JTAG) ==")
	pas, err := debugger(repro.Passive)
	if err != nil {
		return err
	}
	if err := pas.BreakOnState("bp", "heater.thermostat", "Heating"); err != nil {
		return err
	}
	fmt.Fprintf(out, "armed on target: %v (no active interface: host-side fallback)\n",
		pas.Session.Breakpoints()[0].OnTarget())
	if err := pas.Run(2 * time.Second); err != nil {
		return err
	}
	fmt.Fprintf(out, "hit %q: halted at %.4f ms — after the watch poll, so the release body had already completed\n",
		pas.Session.LastBreak.ID, float64(pas.Board.Now())/1e6)
	// The host-side halt comes too late to stop the release's deadline
	// latch: the already-latched output still publishes on schedule.
	pas.Board.RunFor(10_000_000)
	power, _ = pas.Board.ReadOutput("heater", "power")
	fmt.Fprintf(out, "too late to stop the publish: heater.power = %v (the on-target agent held it at 0)\n\n", power)

	// ---- act 3: breakpoint on a remote cluster node ----
	fmt.Fprintln(out, "== remote-node breakpoint (two-board cluster) ==")
	sys, err := models.Distributed()
	if err != nil {
		return err
	}
	cl, err := target.BuildCluster(sys, target.ClusterConfig{})
	if err != nil {
		return err
	}
	nodeA, nodeB := cl.Board("nodeA"), cl.Board("nodeB")
	remote := engine.NewSerialSource(nodeB.HostPort())
	if err := remote.Send(protocol.Instruction{Type: protocol.InSetBreak, Source: "remote-bp", Arg1: "consumer.v >= 8"}); err != nil {
		return err
	}
	var hit *protocol.Event
	for i := 0; i < 100 && hit == nil; i++ {
		cl.RunUntil(cl.Now() + 1_000_000)
		for _, ev := range remote.Poll(cl.Now()) {
			if ev.Type == protocol.EvBreak {
				ev := ev
				hit = &ev
			}
		}
	}
	if hit == nil {
		return errors.New("remote breakpoint never hit")
	}
	fmt.Fprintf(out, "hit %q on nodeB at %.3f ms (trigger %s = %g)\n",
		hit.Source, float64(hit.Time)/1e6, hit.Arg1, hit.Value)
	fmt.Fprintf(out, "nodeB halted: %v, nodeA halted: %v (shared clock at %.3f ms)\n",
		nodeB.Halted(), nodeA.Halted(), float64(cl.Now())/1e6)
	cyclesA := nodeA.Cycles()
	cl.RunUntil(cl.Now() + 20_000_000)
	fmt.Fprintf(out, "20 ms later: nodeA executed %d more cycles, nodeB 0\n", nodeA.Cycles()-cyclesA)
	if err := remote.Send(protocol.Instruction{Type: protocol.InClearBreak, Source: "remote-bp"}); err != nil {
		return err
	}
	if err := remote.Send(protocol.Instruction{Type: protocol.InResume}); err != nil {
		return err
	}
	cl.RunUntil(cl.Now() + 20_000_000)
	fmt.Fprintf(out, "after clear + resume: nodeB halted: %v\n", nodeB.Halted())
	return nil
}
