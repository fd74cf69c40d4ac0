// Distributed: two actors placed on two nodes exchanging a labelled signal
// over a time-triggered TDMA bus — COMDES's "network of distributed
// embedded actors" on the network class the paper assumes. The consumer
// node is debugged passively over JTAG while the producer runs untouched,
// and the run demonstrates the distributed jitter experiment: end-to-end
// latency is bounded by slot phase (every frame arrives at slot start +
// propagation, never earlier, at most one cycle later), and the consumer's
// deadline-latched output stays jitter-free even though the bus adds
// queueing, release jitter and loss.
//
//	go run ./examples/distributed
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/jtag"
	"repro/internal/target"
	"repro/models"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

// run is the whole example behind an error return, so a test pins its
// output without forking.
func run(out io.Writer) error {
	sys, err := models.Distributed()
	if err != nil {
		return err
	}

	// A 300 µs TDMA cycle: nodeA may send in [0,100) µs, nodeB in
	// [150,250) µs, 50 µs guard gaps, ±20 µs release jitter inside the
	// slot, 10% seeded frame loss, 100 µs propagation after departure.
	bus := &dtm.BusSchedule{
		Slots: []dtm.BusSlot{
			{Owner: "nodeA", LenNs: 100_000},
			{Owner: "nodeB", LenNs: 100_000},
		},
		GapNs: 50_000, JitterNs: 20_000, LossPerMille: 100, Seed: 2010,
	}
	cl, err := target.BuildCluster(sys, target.ClusterConfig{
		LatencyNs: 100_000,
		Bus:       bus,
		Board:     target.Config{Baud: 2_000_000},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cluster nodes: %v (TDMA cycle %.0f µs, propagation 0.1 ms, 10%% loss)\n\n",
		cl.Nodes(), float64(bus.CycleNs())/1000)

	// Passive debug of nodeB: watch the consumer's published output.
	nodeB := cl.Boards["nodeB"]
	probe := jtag.NewProbe(nodeB.TAP)
	probe.Reset()
	fmt.Fprintf(out, "nodeB JTAG IDCODE: %#x\n", probe.ReadIDCODE())
	watcher := jtag.NewWatcher(probe)
	if err := engine.AutoWatches(watcher, nodeB.Prog); err != nil {
		return err
	}

	// The distributed jitter experiment: record every arrival instant of
	// the cross-node signal at the consumer's inbox, modulo the TDMA cycle.
	// On a slot-scheduled bus all arrivals share the phase window
	// [slot start + jitter bound + propagation], so the phase spread is
	// bounded by JitterNs — the slot grid, not the producer's publish
	// instant, dictates delivery.
	arrivalPhases := map[uint64]int{}
	ioIdx, ok := nodeB.Prog.Symbols.Index("consumer.v__io")
	if !ok {
		return errors.New("consumer input symbol missing")
	}
	var lastSeen float64
	probeArrival := func(now uint64) {
		if v, err := nodeB.LoadSym(ioIdx); err == nil && v.Float() != lastSeen {
			lastSeen = v.Float()
			arrivalPhases[now%bus.CycleNs()]++
		}
	}

	changes := 0
	const step = 10_000 // fine-grained pump so arrival instants are exact
	for now := uint64(0); now < 100_000_000; now += step {
		cl.RunUntil(now + step)
		probeArrival(cl.Now())
		if cl.Now()%2_000_000 == 0 { // poll the watcher once per period
			for _, ev := range watcher.Poll(cl.Now()) {
				changes++
				if changes <= 6 {
					fmt.Fprintf(out, "  watch: %s\n", ev)
				}
			}
		}
	}

	a, _ := cl.Boards["nodeA"].ReadOutput("producer", "v")
	b, _ := nodeB.ReadOutput("consumer", "twice")
	fmt.Fprintf(out, "\nafter 100 virtual ms: producer ramp = %s, consumer(2x) = %s\n", a, b)

	st, ok := cl.BusStats("nodeA")
	if !ok {
		return errors.New("nodeA unknown to the bus — schedule not installed?")
	}
	fmt.Fprintf(out, "bus: %d enqueued, %d delivered, %d lost, worst queueing %.0f µs (TX queue now %d)\n",
		st.Enqueued, st.Delivered, st.Dropped, float64(st.WorstQueueNs)/1000, st.Queued)

	phases := make([]uint64, 0, len(arrivalPhases))
	for p := range arrivalPhases {
		phases = append(phases, p)
	}
	if len(phases) == 0 {
		return errors.New("no cross-node arrivals observed — bus schedule or loss rate broken")
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	lo, hi := phases[0], phases[len(phases)-1]
	fmt.Fprintf(out, "arrival phases (mod %.0f µs cycle): %d distinct in [%.1f, %.1f] µs — spread %.1f µs <= %.1f µs jitter bound\n",
		float64(bus.CycleNs())/1000, len(phases), float64(lo)/1000, float64(hi)/1000,
		float64(hi-lo)/1000, float64(bus.JitterNs)/1000)
	if hi-lo > bus.JitterNs {
		return fmt.Errorf("arrival phase spread %d exceeds the release jitter bound %d", hi-lo, bus.JitterNs)
	}
	fmt.Fprintf(out, "nodeB target cycles: %d (instrumentation: %d — passive debugging is free)\n",
		nodeB.Cycles(), nodeB.InstrumentationCycles())
	return nil
}
