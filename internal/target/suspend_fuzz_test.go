package target

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/codegen"
	"repro/internal/protocol"
	"repro/internal/value"
)

// suspendBoard is one board of the suspend/resume fuzz: a constructor
// whose environment keeps no state outside the board (so a board restored
// from a snapshot sees the inputs the original sees) and the breakpoint
// conditions the fuzz arms on it.
type suspendBoard struct {
	build func(t testing.TB) *Board
	conds []string
}

var suspendBoards = [...]suspendBoard{
	// Cooperative heating, its room a 400 ms triangle between 17 and 23 °C:
	// the thermostat enters Heating at the 140 ms release.
	{func(t testing.TB) *Board {
		b := heatingBoard(t, fullInstrument, Config{Baud: 1_000_000})
		b.PreLatch = func(now uint64, actor string) {
			if actor != "heater" {
				return
			}
			ms := float64(now%400_000_000) / 1e6
			_ = b.WriteInput("heater", "temp", value.F(17+0.03*max(ms-200, 200-ms)))
			_ = b.WriteInput("heater", "mode", value.I(2))
		}
		return b
	}, []string{"heater.thermostat.__state == 1", "heater.__misses > 0"}},
	// Fixed-priority priorityload: lowly misses every deadline, and its
	// g49 stage is stored only after the release has been preempted.
	{func(t testing.TB) *Board { return priorityBoard(t, codegen.Instrument{}) },
		[]string{"lowly.__misses > 0", "lowly.g49.out == 7"}},
}

// Suspend/resume fuzz commands: two bytes each, an opcode and an argument.
const (
	fzRun      = iota // run 1–20 ms
	fzRunShort        // run 37 µs – 9.5 ms
	fzSetBreak
	fzClearBreak
	fzStep
	fzResume
	fzSnapshot
	fzOps
)

// FuzzSuspendResume drives a cooperative heating board or a fixed-priority
// priorityload board through a byte-decoded sequence of runs, on-target
// breakpoint arming and clearing, steps, resumes and snapshots. Every
// snapshot is restored into a fresh twin (through its JSON form), and from
// then on each twin must send the same UART bytes and write the same
// snapshot JSON as the live board after every command. No command may
// panic, and no task's ExecNs may decrease.
func FuzzSuspendResume(f *testing.F) {
	cmd := func(op, arg byte) []byte { return []byte{op, arg} }
	seq := func(board byte, cmds ...[]byte) []byte { return append([]byte{board}, bytes.Join(cmds, nil)...) }
	// The heating re-hit: halt in the 140 ms release, resume with the
	// condition still true (the continued body trips again), clear, resume.
	to140 := bytes.Repeat(cmd(fzRun, 19), 7)
	f.Add(seq(0, cmd(fzSetBreak, 0), to140, cmd(fzSnapshot, 0), cmd(fzResume, 0), cmd(fzRun, 0),
		cmd(fzSnapshot, 0), cmd(fzClearBreak, 0), cmd(fzResume, 0), cmd(fzRun, 9)))
	// The latch-window session: halt in the 140 ms release, clear, resume
	// 1 ms later, snapshot while the made-up latch is owed, run on.
	f.Add(seq(0, cmd(fzSetBreak, 0), to140, cmd(fzClearBreak, 0), cmd(fzResume, 0), cmd(fzRun, 0),
		cmd(fzSnapshot, 0), cmd(fzRun, 9), cmd(fzStep, 0), cmd(fzRun, 4)))
	// A fixed-priority suspension across a preemption: lowly halts at g49
	// after being preempted, is snapshotted there, resumes and runs on.
	f.Add(seq(1, cmd(fzSetBreak, 1), cmd(fzRun, 9), cmd(fzSnapshot, 0), cmd(fzResume, 0),
		cmd(fzRunShort, 20), cmd(fzSnapshot, 0), cmd(fzSetBreak, 0), cmd(fzRun, 19), cmd(fzStep, 0),
		cmd(fzRun, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sb := suspendBoards[int(data[0])%len(suspendBoards)]
		live := sb.build(t)
		var twins []*Board
		execNs := map[string]uint64{}
		for i := 1; i+1 < len(data) && i < 129; i += 2 {
			op, arg := data[i]%fzOps, data[i+1]
			if op == fzSnapshot {
				if len(twins) < 3 {
					live.HostPort().Recv() // a twin starts with nothing delivered and unread
					twins = append(twins, restoredTwin(t, sb, live))
				}
				continue
			}
			for _, b := range append([]*Board{live}, twins...) {
				suspendCommand(t, b, sb, op, arg)
			}
			sent := live.HostPort().Recv()
			want := snapshotBytes(t, live)
			for k, tw := range twins {
				if got := tw.HostPort().Recv(); !bytes.Equal(got, sent) {
					t.Fatalf("command %d: twin %d sent %x, live board %x", i/2, k, got, sent)
				}
				if got := snapshotBytes(t, tw); !bytes.Equal(got, want) {
					t.Fatalf("command %d: twin %d snapshot differs:\n%s\n%s", i/2, k, got, want)
				}
			}
			for _, task := range live.Tasks() {
				if task.ExecNs < execNs[task.Name] {
					t.Fatalf("command %d: %s ExecNs fell from %d to %d", i/2, task.Name, execNs[task.Name], task.ExecNs)
				}
				execNs[task.Name] = task.ExecNs
			}
		}
	})
}

// suspendCommand applies one fuzz command to b.
func suspendCommand(t testing.TB, b *Board, sb suspendBoard, op, arg byte) {
	switch op {
	case fzRun:
		b.RunFor(uint64(1+arg%20) * 1_000_000)
	case fzRunShort:
		b.RunFor(uint64(1+arg) * 37_000)
	case fzSetBreak:
		n := int(arg) % len(sb.conds)
		sendIn(t, b, protocol.Instruction{Type: protocol.InSetBreak, Source: fmt.Sprint("b", n), Arg1: sb.conds[n]})
	case fzClearBreak:
		sendIn(t, b, protocol.Instruction{Type: protocol.InClearBreak, Source: fmt.Sprint("b", int(arg)%len(sb.conds))})
	case fzStep:
		sendIn(t, b, protocol.Instruction{Type: protocol.InStep})
	case fzResume:
		sendIn(t, b, protocol.Instruction{Type: protocol.InResume})
	}
}

// restoredTwin boots a fresh board and restores it from live's snapshot,
// taken through the snapshot's JSON form.
func restoredTwin(t testing.TB, sb suspendBoard, live *Board) *Board {
	var st BoardState
	if err := json.Unmarshal(snapshotBytes(t, live), &st); err != nil {
		t.Fatal(err)
	}
	twin := sb.build(t)
	if err := twin.Restore(&st); err != nil {
		t.Fatal(err)
	}
	return twin
}

func snapshotBytes(t testing.TB, b *Board) []byte {
	st, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
