// Checkpoint-replay debugging: record-and-revisit for the DTM timing
// experiments. A long preemptive run is recorded with periodic
// checkpoints; when the deadline miss scrolls past, the session rewinds
// to just before it and deterministically re-executes — landing on the
// exact nanosecond, with the same preemptions, the same wire frames and
// the same sequence numbers as the original timeline.
//
// Under the hood every stateful layer is an explicit value: the VM
// machines (stacks, PC, mid-release slices), the scheduler (ready queue,
// in-flight jobs, latches), the board (RAM, armed breakpoint predicates,
// UART frames mid-flight) — see target.BoardState. The same value
// serializes to disk: `cmd/gmdf -checkpoint/-restore` resumes a session
// in a fresh process with a byte-identical trace.
//
//	go run ./examples/checkpoint
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

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint:", err)
		os.Exit(1)
	}
}

// run is the whole example behind an error return, so a test pins its
// output without forking.
func run(out io.Writer) error {
	sys, err := models.PriorityLoad()
	if err != nil {
		return err
	}
	dbg, err := repro.Debug(sys, repro.DebugConfig{
		Transport: repro.Active,
		Board:     target.Config{CPUHz: 1_000_000, Sched: dtm.FixedPriority, Baud: 2_000_000},
	})
	if err != nil {
		return err
	}

	// ---- act 1: record ----
	rec, err := dbg.EnableCheckpointing(10 * time.Millisecond)
	if err != nil {
		return err
	}
	if err := dbg.Run(40 * time.Millisecond); err != nil {
		return err
	}
	misses := dbg.Session.Trace.OfType(protocol.EvDeadlineMiss)
	fmt.Fprintf(out, "recorded 40 ms: %d trace records, %d checkpoints, %d deadline misses\n",
		dbg.Session.Trace.Len(), len(rec.Checkpoints()), misses.Len())
	firstMiss := misses.At(0).Event.Time
	fmt.Fprintf(out, "first miss: lowly's latch at %.3f ms — long gone by the end of the run\n",
		float64(firstMiss)/1e6)

	// ---- act 2: rewind to just before the anomaly ----
	landed, err := dbg.Session.RewindTo(firstMiss - 500_000)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrewound to %.3f ms (exact instant; trace truncated to %d records)\n",
		float64(landed)/1e6, dbg.Session.Trace.Len())
	fmt.Fprintf(out, "misses on the rewound board: %d\n", dbg.Board.DeadlineMisses())

	// ---- act 3: replay into the miss ----
	base := dbg.Board.DeadlineMisses()
	hit, err := dbg.Session.ReplayUntil(func(now uint64) bool {
		return dbg.Board.DeadlineMisses() > base
	}, 5_000_000)
	if err != nil {
		return err
	}
	if !hit {
		return errors.New("replay did not reproduce the miss")
	}
	fmt.Fprintf(out, "replayed into the miss: board at %.3f ms, misses=%d (deterministic re-execution)\n",
		float64(dbg.Board.Now())/1e6, dbg.Board.DeadlineMisses())

	// ---- act 4: run back out to the horizon; the timeline re-merges ----
	if _, err := dbg.Session.ReplayUntil(func(now uint64) bool { return now >= 40_000_000 }, 40_000_000); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nreplayed to the horizon: %d trace records (byte-identical to the recording)\n",
		dbg.Session.Trace.Len())
	fmt.Fprintln(out, "\n== timing diagram with incident lanes ('^' preempt, '!' miss) ==")
	fmt.Fprint(out, dbg.TimingDiagramASCII(76))
	return nil
}
