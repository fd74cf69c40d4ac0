package target

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/protocol"
	"repro/internal/value"
)

// warmHeatingBoard is heatingBoard starting at 25 °C, so the thermostat
// sits in Idle and only enters Heating once the room has cooled below the
// 19 °C guard — deterministically at the release instant t = 200 ms
// (25 - 0.3·(k+1) < 19 first holds for the k = 20th release).
func warmHeatingBoard(t testing.TB, instr codegen.Instrument, cfg Config) *Board {
	t.Helper()
	b := heatingBoard(t, instr, cfg)
	temp := 25.3 // PreLatch cools before the first latch: 25.0 at t=0
	b.PreLatch = func(now uint64, actor string) {
		if actor != "heater" {
			return
		}
		if p, err := b.ReadOutput("heater", "power"); err == nil && p.Float() > 0 {
			temp += 0.5
		} else {
			temp -= 0.3
		}
		_ = b.WriteInput("heater", "temp", value.F(temp))
		_ = b.WriteInput("heater", "mode", value.I(2))
	}
	return b
}

// sendIn encodes one instruction onto the board's host port.
func sendIn(t testing.TB, b *Board, in protocol.Instruction) {
	t.Helper()
	wire, err := protocol.EncodeInstruction(in)
	if err != nil {
		t.Fatal(err)
	}
	b.HostPort().Send(wire)
}

func TestWireSetClearBreak(t *testing.T) {
	b := warmHeatingBoard(t, codegen.Instrument{}, Config{Baud: 1_000_000})
	sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: "bp1", Arg1: "heater.thermostat.__state == 1"})
	b.RunFor(5_000_000)
	bps := b.TargetBreaks()
	if len(bps) != 1 || bps[0].ID != "bp1" || bps[0].Cond != "heater.thermostat.__state == 1" {
		t.Fatalf("armed breaks = %+v", bps)
	}
	// A malformed condition is dropped, not armed.
	sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: "bad", Arg1: "1 +"})
	// Replacing re-compiles under the same id.
	sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: "bp1", Arg1: "heater.temp < 10"})
	b.RunFor(5_000_000)
	bps = b.TargetBreaks()
	if len(bps) != 1 || bps[0].Cond != "heater.temp < 10" {
		t.Fatalf("after replace: %+v", bps)
	}
	// The kernel's scheduling counters are symbols like any other: a
	// preemption condition arms beside the first one.
	sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: "pre", Arg1: "heater.__preempts > 0"})
	b.RunFor(5_000_000)
	bps = b.TargetBreaks()
	if len(bps) != 2 || bps[1].ID != "pre" || bps[1].Cond != "heater.__preempts > 0" {
		t.Fatalf("preemption condition not armed: %+v", bps)
	}
	sendIn(t, b, protocol.Instruction{Type: protocol.InClearBreak, Source: "bp1"})
	sendIn(t, b, protocol.Instruction{Type: protocol.InClearBreak, Source: "pre"})
	b.RunFor(5_000_000)
	if len(b.TargetBreaks()) != 0 {
		t.Fatalf("clear left %+v", b.TargetBreaks())
	}
}

// TestOnTargetBreakHaltsMidRelease is the heart of the agent: the board
// halts at the instruction that stores the breaking state — mid-release,
// with that release's deadline latch suppressed — and completes the
// release (late publish included) on resume after the breakpoint is
// cleared.
func TestOnTargetBreakHaltsMidRelease(t *testing.T) {
	b := warmHeatingBoard(t, fullInstrument, Config{Baud: 1_000_000})
	sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: "enter-heating", Arg1: "heater.thermostat.__state == 1"})

	var dec protocol.Decoder
	var breakEv *protocol.Event
	for i := 0; i < 400 && !b.Halted(); i++ {
		b.RunFor(1_000_000)
		evs, _ := dec.Feed(b.HostPort().Recv())
		for _, ev := range evs {
			if ev.Type == protocol.EvBreak {
				ev := ev
				breakEv = &ev
			}
		}
	}
	if !b.Halted() {
		t.Fatal("breakpoint never halted the board")
	}
	// The EvBreak frame may still be crossing the line; drain it.
	for i := 0; i < 20 && breakEv == nil; i++ {
		b.RunFor(1_000_000)
		evs, _ := dec.Feed(b.HostPort().Recv())
		for _, ev := range evs {
			if ev.Type == protocol.EvBreak {
				ev := ev
				breakEv = &ev
			}
		}
	}
	if breakEv == nil {
		t.Fatal("no EvBreak frame on the wire")
	}
	if breakEv.Source != "enter-heating" {
		t.Errorf("EvBreak source = %q", breakEv.Source)
	}
	if breakEv.Arg1 != "heater.thermostat.__state" {
		t.Errorf("triggering symbol = %q", breakEv.Arg1)
	}
	if breakEv.Value != 1 {
		t.Errorf("triggering value = %g, want 1 (Heating)", breakEv.Value)
	}
	// Halt instant: at the 200 ms release, within the release body —
	// strictly before the 205 ms deadline latch.
	if breakEv.Time < 200_000_000 || breakEv.Time >= 205_000_000 {
		t.Errorf("halt at %d ns, want within [200ms, 205ms)", breakEv.Time)
	}
	// The suspended release's deadline latch must NOT have published: the
	// power output still carries Idle's 0 even though virtual time has
	// long passed the 205 ms deadline instant.
	if b.Now() < 206_000_000 {
		b.RunFor(206_000_000 - b.Now())
	}
	p, err := b.ReadOutput("heater", "power")
	if err != nil {
		t.Fatal(err)
	}
	if p.Float() != 0 {
		t.Fatalf("deadline latch published %v while suspended at a breakpoint", p)
	}
	// The scheduler recorded a suspension, not an error or a miss.
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if b.DeadlineMisses() != 0 {
		t.Errorf("deadline misses = %d during suspension", b.DeadlineMisses())
	}
	var susp uint64
	for _, task := range b.sched.Tasks() {
		susp += task.Suspensions
	}
	if susp != 1 {
		t.Errorf("task suspensions = %d, want 1", susp)
	}
	if b.TargetBreaks()[0].Hits != 1 {
		t.Errorf("hit count = %d", b.TargetBreaks()[0].Hits)
	}

	// Clear the (still-true) condition, then resume: the interrupted
	// release runs to completion and the skipped deadline latch is made
	// up immediately (it is already past due), publishing Heating's 100.
	sendIn(t, b, protocol.Instruction{Type: protocol.InClearBreak, Source: "enter-heating"})
	sendIn(t, b, protocol.Instruction{Type: protocol.InResume})
	b.RunFor(2_000_000)
	if b.Halted() {
		t.Fatal("resume not serviced")
	}
	p, err = b.ReadOutput("heater", "power")
	if err != nil {
		t.Fatal(err)
	}
	if p.Float() != 100 {
		t.Errorf("deferred publish = %v, want 100", p)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakCheckCyclesAreInstrumentation: armed predicates cost target
// CPU at every check site, attributed to instrumentation overhead — the
// breakpoint agent is never free, and the overhead lands in the same
// cycle ledger the jitter experiments read.
func TestBreakCheckCyclesAreInstrumentation(t *testing.T) {
	clean := warmHeatingBoard(t, codegen.Instrument{}, Config{Baud: 1_000_000})
	armed := warmHeatingBoard(t, codegen.Instrument{}, Config{Baud: 1_000_000})
	sendIn(t, armed, protocol.Instruction{Type: protocol.InSetBreak, Source: "never", Arg1: "heater.temp < -1000"})
	for i := 0; i < 50; i++ {
		clean.RunFor(1_000_000)
		armed.RunFor(1_000_000)
	}
	if clean.InstrumentationCycles() != 0 {
		t.Fatalf("clean board instr cycles = %d", clean.InstrumentationCycles())
	}
	ic := armed.InstrumentationCycles()
	if ic == 0 {
		t.Fatal("armed breakpoint cost no instrumentation cycles")
	}
	if ic%codegen.BreakCheckCycles != 0 {
		t.Errorf("instr cycles %d not a multiple of BreakCheckCycles", ic)
	}
	if got, want := armed.Cycles(), clean.Cycles()+ic; got != want {
		t.Errorf("armed cycles = %d, want clean %d + checks %d", got, clean.Cycles(), ic)
	}
	// Response-time accounting sees the inflated cost.
	var cleanNs, armedNs uint64
	for _, task := range clean.sched.Tasks() {
		cleanNs += task.ExecNs
	}
	for _, task := range armed.sched.Tasks() {
		armedNs += task.ExecNs
	}
	if armedNs <= cleanNs {
		t.Errorf("ExecNs %d with checks <= %d without", armedNs, cleanNs)
	}
}

// TestWireStepRunsToNextModelEvent: each InStep resumes the target until
// exactly one more model-level event, announced by one EvStepped frame,
// leaving the board halted again.
func TestWireStepRunsToNextModelEvent(t *testing.T) {
	b := warmHeatingBoard(t, fullInstrument, Config{Baud: 1_000_000})
	sendIn(t, b, protocol.Instruction{Type: protocol.InPause})
	for i := 0; i < 10 && !b.Halted(); i++ {
		b.RunFor(1_000_000)
	}
	if !b.Halted() {
		t.Fatal("pause not serviced")
	}
	var dec protocol.Decoder
	drainStepped := func() int {
		n := 0
		for i := 0; i < 40; i++ {
			b.RunFor(1_000_000)
			evs, _ := dec.Feed(b.HostPort().Recv())
			for _, ev := range evs {
				if ev.Type == protocol.EvStepped {
					n++
				}
			}
		}
		return n
	}
	if n := drainStepped(); n != 0 {
		t.Fatalf("%d EvStepped while idle-halted", n)
	}
	for step := 1; step <= 3; step++ {
		sendIn(t, b, protocol.Instruction{Type: protocol.InStep})
		if n := drainStepped(); n != 1 {
			t.Fatalf("step %d: %d EvStepped frames, want 1", step, n)
		}
		if !b.Halted() {
			t.Fatalf("step %d left the board running", step)
		}
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHaltResumeEdgeCases covers the suspension/halt corner cases the
// breakpoint agent introduced, table-driven over scenarios.
func TestHaltResumeEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"double-pause-idempotent", func(t *testing.T) {
			b := warmHeatingBoard(t, codegen.Instrument{}, Config{Baud: 1_000_000})
			b.RunFor(7_000_000)
			sendIn(t, b, protocol.Instruction{Type: protocol.InPause})
			sendIn(t, b, protocol.Instruction{Type: protocol.InPause})
			b.RunFor(2_000_000)
			if !b.Halted() {
				t.Fatal("not halted")
			}
			b.Halt() // direct halt on top of wire halt
			sendIn(t, b, protocol.Instruction{Type: protocol.InResume})
			b.RunFor(2_000_000)
			if b.Halted() {
				t.Fatal("single resume must clear stacked pauses")
			}
			b.RunFor(50_000_000)
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
			if b.DeadlineMisses() != 0 {
				t.Errorf("misses = %d", b.DeadlineMisses())
			}
		}},
		{"resume-exactly-at-deadline-instant", func(t *testing.T) {
			b := warmHeatingBoard(t, codegen.Instrument{}, Config{})
			// Halt between the 10 ms release and its 15 ms deadline: the
			// already-latched output keeps its deadline instant.
			b.RunFor(12_000_000)
			b.Halt()
			b.RunFor(3_000_000) // now == 15 ms, the deadline instant
			if b.Now() != 15_000_000 {
				t.Fatalf("now = %d", b.Now())
			}
			b.Resume()
			var rel []uint64
			prev := b.PreLatch
			b.PreLatch = func(now uint64, actor string) {
				prev(now, actor)
				if actor == "heater" {
					rel = append(rel, now)
				}
			}
			b.RunFor(30_000_000)
			if len(rel) == 0 {
				t.Fatal("no releases after resume at deadline instant")
			}
			for _, r := range rel {
				if r%10_000_000 != 0 {
					t.Errorf("release at %d off the period grid", r)
				}
			}
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
			if b.DeadlineMisses() != 0 {
				t.Errorf("misses = %d", b.DeadlineMisses())
			}
		}},
		{"pause-while-suspended-then-resume", func(t *testing.T) {
			b := warmHeatingBoard(t, codegen.Instrument{}, Config{Baud: 1_000_000})
			sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: "bp", Arg1: "heater.thermostat.__state == 1"})
			for i := 0; i < 400 && !b.Halted(); i++ {
				b.RunFor(1_000_000)
			}
			if !b.Halted() {
				t.Fatal("breakpoint never hit")
			}
			// A host pause on top of the suspension is a no-op; the board
			// stays suspended and a single clear+resume completes the
			// release.
			sendIn(t, b, protocol.Instruction{Type: protocol.InPause})
			b.RunFor(2_000_000)
			if !b.Halted() {
				t.Fatal("pause lifted the suspension")
			}
			sendIn(t, b, protocol.Instruction{Type: protocol.InClearBreak, Source: "bp"})
			sendIn(t, b, protocol.Instruction{Type: protocol.InResume})
			b.RunFor(2_000_000)
			if b.Halted() {
				t.Fatal("resume not serviced")
			}
			// The resumed release keeps its original deadline instant
			// (205 ms, still ahead at resume); run past it.
			b.RunFor(5_000_000)
			p, err := b.ReadOutput("heater", "power")
			if err != nil {
				t.Fatal(err)
			}
			if p.Float() != 100 {
				t.Errorf("release not completed on resume: power = %v", p)
			}
			b.RunFor(50_000_000)
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
		}},
		{"sticky-condition-resuspends-until-cleared", func(t *testing.T) {
			b := warmHeatingBoard(t, codegen.Instrument{}, Config{Baud: 1_000_000})
			sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: "bp", Arg1: "heater.thermostat.__state == 1"})
			for i := 0; i < 400 && !b.Halted(); i++ {
				b.RunFor(1_000_000)
			}
			if !b.Halted() {
				t.Fatal("breakpoint never hit")
			}
			// Resume without clearing: the still-true condition re-trips
			// at the very next store site and the board re-suspends.
			sendIn(t, b, protocol.Instruction{Type: protocol.InResume})
			b.RunFor(2_000_000)
			if !b.Halted() {
				t.Fatal("sticky condition did not re-suspend")
			}
			if b.TargetBreaks()[0].Hits < 2 {
				t.Errorf("hits = %d, want >= 2", b.TargetBreaks()[0].Hits)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
