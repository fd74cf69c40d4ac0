package repro

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/value"
)

// rewindTargets are the targets FuzzRewindReplay drives: recorderTargets
// plus the heating model on its standard plant, an environment hook that
// writes at the releases of two actors and keeps state of its own.
var rewindTargets = append(recorderTargets[:len(recorderTargets):len(recorderTargets)], struct {
	name  string
	build func(*testing.T) *Debugger
}{"heating", func(t *testing.T) *Debugger { return heatingDebugger(t, Active) }})

// rewindPokes are the host actions FuzzRewindReplay takes, per target: a
// manual input write, and a RAM write over the wire on a node's command
// channel.
var rewindPokes = map[string]struct {
	manual func(*Debugger, float64) error
	wire   func(*Debugger, float64) error
}{
	"board": {
		manual: func(d *Debugger, v float64) error { return d.WriteInput("lowly", "x", value.F(v)) },
		wire: func(d *Debugger, v float64) error {
			return d.Serials["main"].Send(protocol.Instruction{Type: protocol.InWriteVar, Source: "lowly.x__io", Value: v})
		},
	},
	"cluster": {
		manual: func(d *Debugger, v float64) error { return d.WriteInput("consumer", "v", value.F(v)) },
		wire: func(d *Debugger, v float64) error {
			return d.Serials["nodeB"].Send(protocol.Instruction{Type: protocol.InWriteVar, Source: "__busdrops", Value: v})
		},
	},
	"heating": {
		// The plant overwrites temp at the next release; the thermostat's
		// state keeps what the wire writes until its next transition.
		manual: func(d *Debugger, v float64) error { return d.WriteInput("heater", "temp", value.F(v)) },
		wire: func(d *Debugger, v float64) error {
			return d.Serials["main"].Send(protocol.Instruction{Type: protocol.InWriteVar, Source: "heater.thermostat.__state", Value: float64(int(v) % 2)})
		},
	},
}

// Operations of a FuzzRewindReplay input, one per 5 bytes: an opcode byte
// and a little-endian uint32 argument.
const (
	opRun    = iota // RunNs(arg ns), clamped to the frontier when below it
	opRewind        // RewindTo(first checkpoint + arg mod the recorded span)
	opReplay        // ReplayUntil the frontier, at most arg ns
	opPoke          // arg bit 0 picks a manual or a wire write; below the frontier it forks
	opFork          // checkpoint, restore into a fresh recording debugger
	opStop          // ReplayUntil nothing, for arg mod 20 ms: stops off the grid
	numOps
)

// rewindOps encodes a FuzzRewindReplay seed: target 0 is the board, 1 the
// cluster, 2 heating; ops alternate opcode and argument.
func rewindOps(target byte, ops ...uint32) []byte {
	b := []byte{target}
	for i := 0; i+1 < len(ops); i += 2 {
		b = append(b, byte(ops[i]))
		b = binary.LittleEndian.AppendUint32(b, ops[i+1])
	}
	return b
}

// FuzzRewindReplay drives a recording session on the board, the cluster
// or heating through runs, stops off the grid, rewinds, replays, host
// pokes and checkpoint forks. A rewind must land exactly where asked with
// a trace that is a prefix of the frontier's, and whenever the session is
// back at the frontier — the farthest instant its live run has reached —
// its trace and checkpoint bytes must equal those the live run left
// there. A poke below the frontier forks the timeline: the poked instant
// becomes the frontier, and its trace and checkpoint bytes the reference.
// On heating every temperature the plant writes must stay inside the
// room's physical range, forks included.
func FuzzRewindReplay(f *testing.F) {
	for target := byte(0); target < 2; target++ {
		// An off-grid rewind landing resumed live in a fresh debugger, then
		// rewound and replayed.
		f.Add(rewindOps(target, opRun, 40_000_000, opRewind, 17_300_001, opFork, 0,
			opRun, 40_000_000, opRewind, 30_000_000-17_300_001, opReplay, 1<<31))
		// Pokes after 10 ms, then plain runs back to the frontier from
		// before, off the grid after and well after them.
		f.Add(rewindOps(target, opRun, 10_000_000, opPoke, 7<<8, opPoke, 100<<8|1, opRun, 30_000_000,
			opRewind, 6_000_000, opRun, 1<<31, opRewind, 17_300_001, opRun, 1<<31,
			opRewind, 33_000_000, opRun, 1<<31))
		// Pokes at the frontier itself, rewound behind and replayed to.
		f.Add(rewindOps(target, opRun, 12_000_000, opPoke, 3<<8, opPoke, 5<<8|1, opRewind, 4_000_000,
			opReplay, 1<<31, opRun, 9_000_000, opRewind, 11_000_000, opRun, 1<<31))
	}
	// A board rewind landing just short of a slice boundary with frames on
	// the line, where servicing the UART at the landing delays a frame by
	// one slice.
	f.Add(rewindOps(0, opRun, 60_000_000, opRewind, 57_985_393, opReplay, 1<<31))
	// A poke at an off-grid instant of a live run, replayed through.
	f.Add(rewindOps(0, opRun, 20_000_000, opStop, 500_001, opPoke, 7<<8, opRun, 20_000_000,
		opRewind, 15_000_000, opReplay, 1<<31))
	// Pokes after a rewind fork the timeline; replays of the fork.
	for target := byte(0); target < 3; target++ {
		f.Add(rewindOps(target, opRun, 40_000_000, opRewind, 22_000_000, opPoke, 7<<8, opPoke, 1<<8|1,
			opRun, 18_000_000, opRewind, 25_000_000, opReplay, 1<<31, opRewind, 3_000_000, opRun, 1<<31))
	}
	// Heating's plant writes temp at the monitor's release too; at 76 ms
	// RAM still holds that write.
	f.Add(rewindOps(2, opRun, 76_000_000, opRewind, 22_000_000, opReplay, 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const (
			horizon = 80_000_000 // the live run never goes past it
			maxOps  = 16
		)
		tc := rewindTargets[int(data[0])%len(rewindTargets)]
		pokes := rewindPokes[tc.name]
		dbg := tc.build(t)
		record := func() {
			if _, err := dbg.EnableCheckpointing(5 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		record()
		frontier, first := dbg.Now(), dbg.Now()
		frontTrace, frontCp := formatTrace(dbg), checkpointBytes(t, dbg)
		for i, data := 0, data[1:]; i < maxOps && len(data) >= 5; i, data = i+1, data[5:] {
			op, arg := data[0]%numOps, binary.LittleEndian.Uint32(data[1:5])
			live := !dbg.Recorder.Replaying()
			switch op {
			case opRun:
				to := min(dbg.Now()+uint64(arg), horizon)
				if !live {
					to = min(to, frontier)
				}
				if to > dbg.Now() {
					if err := dbg.RunNs(to - dbg.Now()); err != nil {
						t.Fatal(err)
					}
				}
			case opRewind:
				at := first + uint64(arg)%(frontier-first+1)
				landed, err := dbg.Session.RewindTo(at)
				if err != nil {
					t.Fatal(err)
				}
				if landed != at || dbg.Now() != at {
					t.Fatalf("RewindTo(%d) landed at %d (now %d)", at, landed, dbg.Now())
				}
				if !bytes.HasPrefix([]byte(frontTrace), []byte(formatTrace(dbg))) {
					t.Fatalf("trace after RewindTo(%d) is not a prefix of the frontier trace", at)
				}
			case opReplay:
				if _, err := dbg.Session.ReplayUntil(func(now uint64) bool { return now >= frontier }, uint64(arg)); err != nil {
					t.Fatal(err)
				}
			case opPoke:
				poke, v := pokes.manual, float64(arg>>8%1000)
				if arg&1 != 0 {
					poke = pokes.wire
				}
				if err := poke(dbg, v); err != nil {
					t.Fatal(err)
				}
				if dbg.Recorder.Replaying() {
					t.Fatalf("poke at %d did not fork the recorded timeline", dbg.Now())
				}
				// A poke is part of the frontier state the live run leaves.
				frontier, frontTrace, frontCp = dbg.Now(), formatTrace(dbg), checkpointBytes(t, dbg)
			case opStop:
				to := min(dbg.Now()+uint64(arg)%20_000_000, horizon)
				if !live {
					to = min(to, frontier)
				}
				if to > dbg.Now() {
					if _, err := dbg.Session.ReplayUntil(func(uint64) bool { return false }, to-dbg.Now()); err != nil {
						t.Fatal(err)
					}
				}
				if dbg.Now() != to {
					t.Fatalf("stop at %d landed at %d", to, dbg.Now())
				}
			case opFork:
				cp, err := dbg.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				dbg = tc.build(t)
				if err := dbg.RestoreCheckpoint(jsonRoundtrip(t, cp)); err != nil {
					t.Fatal(err)
				}
				record()
				frontier, first = dbg.Now(), dbg.Now()
				frontTrace, frontCp = formatTrace(dbg), checkpointBytes(t, dbg)
			}
			if tc.name == "heating" {
				plantInRange(t, dbg)
			}
			switch now := dbg.Now(); {
			case now > frontier:
				frontier, frontTrace, frontCp = now, formatTrace(dbg), checkpointBytes(t, dbg)
			case now == frontier:
				if got := formatTrace(dbg); got != frontTrace {
					diffTraces(t, got, frontTrace)
				}
				if !bytes.Equal(checkpointBytes(t, dbg), frontCp) {
					t.Fatalf("op %d: checkpoint back at the frontier %d differs from the live run's", i, frontier)
				}
			}
		}
	})
}

// plantInRange requires every heater.temp write in the environment log to
// lie in the heating room's physical range: it starts at ambient (15 °C)
// and settles at most Gain/Loss (10 °C) above it.
func plantInRange(t *testing.T, d *Debugger) {
	t.Helper()
	for _, in := range d.Recorder.Inputs() {
		if v, err := value.Decode(in.Val); err == nil && in.Port == "temp" && (v.Float() < 14 || v.Float() > 26) {
			t.Fatalf("the plant wrote heater.temp %g at %d ns", v.Float(), in.At)
		}
	}
}
