package target

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dtm"
	"repro/internal/protocol"
)

// TestBoardSnapshotHaltedWithStepArmed freezes a board that is halted by
// a host InPause with an InStep armed, restores the serialized form onto
// a fresh board, and verifies both boards complete the pending step at
// the same instant with the same wire bytes.
func TestBoardSnapshotHaltedWithStepArmed(t *testing.T) {
	run := func() (*Board, *protocol.Decoder) {
		b := priorityBoard(t, codegen.Instrument{Signals: true})
		dec := &protocol.Decoder{}
		b.RunFor(5_000_000)
		dec.Feed(b.HostPort().Recv())
		// Pause, then arm a step while halted (serviced at the next sync).
		send := func(in protocol.Instruction) {
			wire, err := protocol.EncodeInstruction(in)
			if err != nil {
				t.Fatal(err)
			}
			b.HostPort().Send(wire)
		}
		send(protocol.Instruction{Type: protocol.InPause, Seq: 1})
		b.RunFor(1_000_000)
		dec.Feed(b.HostPort().Recv())
		if !b.Halted() {
			t.Fatal("board should be halted")
		}
		return b, dec
	}

	control, cdec := run()
	victim, vdec := run()
	st, err := victim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sched.Halted {
		t.Fatal("snapshot must record the halt")
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 BoardState
	if err := json.Unmarshal(blob, &st2); err != nil {
		t.Fatal(err)
	}

	fresh := priorityBoard(t, codegen.Instrument{Signals: true})
	if err := fresh.Restore(&st2); err != nil {
		t.Fatal(err)
	}
	// The host decoder may be mid-frame at the capture instant; its state
	// travels with the checkpoint (engine.SerialSourceState host-side).
	fdec := &protocol.Decoder{}
	fdec.Restore(vdec.Snapshot())

	// Resume both via InStep and compare the resulting event streams.
	resume := func(b *Board, dec *protocol.Decoder) []protocol.Event {
		wire, err := protocol.EncodeInstruction(protocol.Instruction{Type: protocol.InStep, Seq: 2})
		if err != nil {
			t.Fatal(err)
		}
		b.HostPort().Send(wire)
		var evs []protocol.Event
		for i := 0; i < 10; i++ {
			b.RunFor(1_000_000)
			got, _ := dec.Feed(b.HostPort().Recv())
			evs = append(evs, got...)
		}
		return evs
	}
	_ = cdec
	want := resume(control, cdec)
	got := resume(fresh, fdec)
	_ = vdec
	if len(want) == 0 {
		t.Fatal("step should emit events")
	}
	if len(got) != len(want) {
		t.Fatalf("event counts diverge: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d diverges:\n got %+v\n want %+v", i, got[i], want[i])
		}
	}
	if control.Cycles() != fresh.Cycles() || control.Now() != fresh.Now() {
		t.Fatalf("counters diverge: cycles %d/%d now %d/%d",
			control.Cycles(), fresh.Cycles(), control.Now(), fresh.Now())
	}
}

// TestFoldDeferredKeepsDeadlineOrder: a checkpoint's board-level made-up
// latches join the scheduler's pending outputs by (instant, sequence
// number), and the checkpoint's own slice is left as it was.
func TestFoldDeferredKeepsDeadlineOrder(t *testing.T) {
	pending := []dtm.PendingOutputState{{Task: "a", At: 100, Seq: 5}, {Task: "b", At: 300, Seq: 9}}
	deferred := []DeferredLatchState{{Unit: "c", At: 200, Seq: 7}, {Unit: "d", At: 100, Seq: 8}, {Unit: "e", At: 400, Seq: 10}}
	got := foldDeferred(pending, deferred)
	want := []dtm.PendingOutputState{
		{Task: "a", At: 100, Seq: 5}, {Task: "d", At: 100, Seq: 8}, {Task: "c", At: 200, Seq: 7},
		{Task: "b", At: 300, Seq: 9}, {Task: "e", At: 400, Seq: 10},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("folded = %+v\nwant %+v", got, want)
	}
	if len(pending) != 2 || pending[1].Task != "b" {
		t.Fatalf("fold changed the checkpoint's pending outputs: %+v", pending)
	}
}
