package target

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dtm"
)

// runThroughTarget is the part of a Board or a Cluster that
// TestRunThroughIsInvisible drives.
type runThroughTarget interface {
	RunUntil(t uint64)
	RunThrough(t uint64)
}

// TestRunThroughIsInvisible stops a run between two 1 ms slices with
// RunThrough and requires the preemptive board, and the TDMA cluster, to
// end each of the next slices in exactly the state of a run that never
// stopped: no UART service, drop report or host instruction lands at the
// cut. The cuts sit just after a slice boundary, mid-slice, and just
// before the next boundary with frames still on the line.
func TestRunThroughIsInvisible(t *testing.T) {
	instr := codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}
	bus := func() *dtm.BusSchedule {
		return &dtm.BusSchedule{
			Slots: []dtm.BusSlot{{Owner: "nodeA", LenNs: 100_000}, {Owner: "nodeB", LenNs: 100_000}},
			GapNs: 50_000, JitterNs: 20_000, LossPerMille: 100, Seed: 2010,
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (runThroughTarget, func() []byte)
		cuts  []uint64
	}{
		{"board", func() (runThroughTarget, func() []byte) {
			b := priorityBoard(t, instr)
			return b, func() []byte { return snapshotBytes(t, b) }
		}, []uint64{57_000_001, 57_500_000, 57_985_393, 57_999_999}},
		{"cluster", func() (runThroughTarget, func() []byte) {
			cl := tdmaCluster(t, bus(), 100_000)
			return cl, func() []byte {
				st, err := cl.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
		}, []uint64{5_077_777, 7_099_979, 13_088_808}},
	} {
		for _, cut := range tc.cuts {
			straight, straightState := tc.build()
			stopped, stoppedState := tc.build()
			for ms := uint64(1); ms <= cut/1_000_000; ms++ {
				straight.RunUntil(ms * 1_000_000)
				stopped.RunUntil(ms * 1_000_000)
			}
			stopped.RunThrough(cut)
			for ms := cut/1_000_000 + 1; ms <= cut/1_000_000+3; ms++ {
				straight.RunUntil(ms * 1_000_000)
				stopped.RunUntil(ms * 1_000_000)
				if !bytes.Equal(stoppedState(), straightState()) {
					t.Errorf("%s stopped at %d ns with RunThrough differs at %d ms from the unbroken run", tc.name, cut, ms)
				}
			}
		}
	}
}
