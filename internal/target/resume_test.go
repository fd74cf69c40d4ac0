package target

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/protocol"
)

// haltAtBreak runs b in 1 ms steps until it halts, then 2 ms more so the
// frames in flight arrive, and returns the Break frames it sent.
func haltAtBreak(t *testing.T, b *Board, dec *protocol.Decoder) []protocol.Event {
	t.Helper()
	for i := 0; i < 400 && !b.Halted(); i++ {
		b.RunFor(1_000_000)
	}
	if !b.Halted() {
		t.Fatal("breakpoint never hit")
	}
	b.RunFor(2_000_000)
	return breaksSent(b, dec)
}

// breaksSent decodes what has arrived from the board and keeps the Break
// frames.
func breaksSent(b *Board, dec *protocol.Decoder) []protocol.Event {
	evs, _ := dec.Feed(b.HostPort().Recv())
	var out []protocol.Event
	for _, ev := range evs {
		if ev.Type == protocol.EvBreak {
			out = append(out, ev)
		}
	}
	return out
}

// TestResumedCooperativeReleaseIsCharged: a cooperative release halted at
// an on-target breakpoint, resumed with the condition still true (it trips
// again) and then resumed for good charges its whole cost on completion —
// the piece before the first hit (stamped at release + that cost) plus
// every piece after a resume (the cycles the board ran in Resume) — as a
// fixed-priority job does, and each hit counts as a suspension.
func TestResumedCooperativeReleaseIsCharged(t *testing.T) {
	b := warmHeatingBoard(t, fullInstrument, Config{Baud: 1_000_000})
	heater := b.Tasks()[0]
	if heater.Name != "heater" {
		t.Fatalf("first task is %s", heater.Name)
	}
	if err := b.agent.set("bp", "heater.thermostat.__state == 1"); err != nil {
		t.Fatal(err)
	}
	var dec protocol.Decoder
	first := haltAtBreak(t, b, &dec)
	if len(first) != 1 {
		t.Fatalf("break frames %+v, want one", first)
	}
	release := first[0].Time / heater.Period * heater.Period
	cost := first[0].Time - release // 100 MHz: 10 ns per cycle, no rounding
	execBefore := heater.ExecNs

	c0, resumeAt := b.Cycles(), b.Now()
	b.Resume() // the condition still holds: the body trips again
	if !b.Halted() {
		t.Fatal("the resumed body did not trip again")
	}
	cost += (b.Cycles() - c0) * 10
	b.RunFor(2_000_000)
	if again := breaksSent(b, &dec); len(again) != 1 || again[0].Time != resumeAt {
		t.Fatalf("re-hit frames %+v, want one at the resume instant %d", again, resumeAt)
	}
	if heater.Suspensions != 2 || heater.ExecNs != execBefore {
		t.Fatalf("after the re-hit: suspensions=%d exec=%d, want 2 and %d", heater.Suspensions, heater.ExecNs, execBefore)
	}

	b.agent.clear("bp")
	c0 = b.Cycles()
	b.Resume()
	if b.Halted() {
		t.Fatal("board still halted after the breakpoint was cleared")
	}
	cost += (b.Cycles() - c0) * 10
	if got, want := heater.ExecNs, execBefore+cost; got != want {
		t.Errorf("ExecNs after completion = %d, want %d + the release's whole cost %d", got, execBefore, cost)
	}
	if heater.WorstNs < cost {
		t.Errorf("WorstNs = %d, below the resumed release's cost %d", heater.WorstNs, cost)
	}
}

// TestReHitAfterResumeCountsUnderBothPolicies: every on-target hit is a
// suspension, the first of a release and any re-hit in its continuation
// alike, under both scheduling policies.
func TestReHitAfterResumeCountsUnderBothPolicies(t *testing.T) {
	for _, tc := range []struct {
		name, task, cond string
		board            func() *Board
	}{
		{"cooperative", "heater", "heater.thermostat.__state == 1", func() *Board {
			return warmHeatingBoard(t, fullInstrument, Config{Baud: 1_000_000})
		}},
		{"fixed-priority", "lowly", "lowly.g10.out == 7", func() *Board {
			return priorityBoard(t, codegen.Instrument{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.board()
			if err := b.agent.set("bp", tc.cond); err != nil {
				t.Fatal(err)
			}
			var dec protocol.Decoder
			hits := len(haltAtBreak(t, b, &dec))
			b.Resume() // the hit predicate stays hot: the body trips at its next check site
			if !b.Halted() {
				t.Fatal("the resumed body did not trip again")
			}
			b.RunFor(2_000_000)
			hits += len(breaksSent(b, &dec))
			var susp uint64
			for _, task := range b.Tasks() {
				if task.Name == tc.task {
					susp = task.Suspensions
				}
			}
			if hits != 2 || susp != 2 {
				t.Fatalf("%d break frames and %d suspensions, want a re-hit counted: 2 and 2", hits, susp)
			}
		})
	}
}
