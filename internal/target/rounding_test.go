package target

import (
	"testing"

	"repro/internal/protocol"
)

// TestCooperativeCostRoundingPinned pins how a cooperative board turns VM
// cycles into virtual time on a core whose clock does not divide 1e9
// (7 MHz: one cycle is 142.857 ns). A run-to-completion release costs the
// full-precision floor of its cycles, which ExecNs sums and WorstNs
// maximises; rounding up would read one more nanosecond on every figure
// below. An on-target hit is stamped at release + that floor cost, and a
// re-hit after a resume at the resume instant. Each hit counts a
// suspension, and a suspended release charges neither ExecNs nor WorstNs
// until it completes.
func TestCooperativeCostRoundingPinned(t *testing.T) {
	cfg := Config{CPUHz: 7_000_000, Baud: 1_000_000}
	type costs struct{ exec, worst, releases, susp uint64 }
	check := func(b *Board, want map[string]costs) {
		t.Helper()
		for _, task := range b.Tasks() {
			got := costs{task.ExecNs, task.WorstNs, task.Releases, task.Suspensions}
			if got != want[task.Name] {
				t.Errorf("%s: {exec worst releases suspensions} = %v, want %v", task.Name, got, want[task.Name])
			}
		}
	}

	b := heatingBoard(t, fullInstrument, cfg)
	b.RunFor(300_000_000)
	check(b, map[string]costs{
		"heater":  {654406, 37142, 31, 0},
		"monitor": {42840, 1428, 30, 0},
	})

	w := warmHeatingBoard(t, fullInstrument, cfg)
	sendIn(t, w, protocol.Instruction{Type: protocol.InSetBreak, Source: "bp", Arg1: "heater.thermostat.__state == 1"})
	var dec protocol.Decoder
	var breaks []protocol.Event
	collect := func() {
		evs, _ := dec.Feed(w.HostPort().Recv())
		for _, ev := range evs {
			if ev.Type == protocol.EvBreak {
				breaks = append(breaks, ev)
			}
		}
	}
	for i := 0; i < 400 && !w.Halted(); i++ {
		w.RunFor(1_000_000)
		collect()
	}
	// Resume with the condition still true: the board services the resume
	// at the next RunFor boundary, and the continued body re-trips at its
	// next check site.
	sendIn(t, w, protocol.Instruction{Type: protocol.InResume})
	w.RunFor(2_000_000)
	w.RunFor(2_000_000)
	collect()
	want := []struct {
		arg1 string
		at   uint64
	}{
		{"heater.thermostat.__state", 200_005_571}, // the 200 ms release + 39 cycles
		{"heater.thermostat", 202_000_000},         // the resume instant
	}
	if len(breaks) != len(want) {
		t.Fatalf("break records = %+v, want %d", breaks, len(want))
	}
	for i, ev := range breaks {
		if ev.Source != "bp" || ev.Arg1 != want[i].arg1 || ev.Time != want[i].at {
			t.Errorf("break %d = %s %s at %d, want bp %s at %d", i, ev.Source, ev.Arg1, ev.Time, want[i].arg1, want[i].at)
		}
	}
	if !w.Halted() || w.Cycles() != 6520 {
		t.Errorf("halted=%v cycles=%d, want re-suspended at 6520 cycles", w.Halted(), w.Cycles())
	}
	check(w, map[string]costs{
		"heater":  {362840, 18142, 21, 2},
		"monitor": {29703, 2571, 20, 0},
	})
}
