package target

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/internal/protocol"
	"repro/internal/value"
	"repro/models"
)

// sameInstantSystem is the collision model for the parallel/serial
// equivalence sweep: producers p1 (node n1) and p2 (node n2) both latch at
// t = 500 µs — p1 via deadline 500 µs, p2 via offset 100 µs + deadline
// 400 µs, so their frames share an arrival instant but not a schedule
// history — and consumer cons (node n3) releases at exactly the arrival
// instant. With a 500 µs constant-latency network, both frames, cons's
// release and p1's next release all land on the same nanosecond across
// three nodes.
func sameInstantSystem(t testing.TB) *comdes.System {
	t.Helper()
	ramp := func(name string, task comdes.TaskSpec) *comdes.Actor {
		net := comdes.NewNetwork(name+"net", nil, []comdes.Port{{Name: "v", Kind: value.Float}})
		net.MustAdd(comdes.MustComponent("const", "one", map[string]value.Value{"value": value.F(1)}))
		net.MustAdd(comdes.MustComponent("sum", "acc", nil))
		net.MustConnect("one", "out", "acc", "a").
			MustConnect("acc", "out", "acc", "b").
			MustConnect("acc", "out", "", "v")
		a, err := comdes.NewActor(name, net, task)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	p1 := ramp("p1", comdes.TaskSpec{PeriodNs: 1_000_000, DeadlineNs: 500_000})
	p2 := ramp("p2", comdes.TaskSpec{PeriodNs: 1_000_000, OffsetNs: 100_000, DeadlineNs: 400_000})

	consNet := comdes.NewNetwork("cnet",
		[]comdes.Port{{Name: "a", Kind: value.Float}, {Name: "b", Kind: value.Float}},
		[]comdes.Port{{Name: "s", Kind: value.Float}})
	consNet.MustAdd(comdes.MustComponent("sum", "add", nil))
	consNet.MustConnect("", "a", "add", "a").
		MustConnect("", "b", "add", "b").
		MustConnect("add", "out", "", "s")
	cons, err := comdes.NewActor("cons", consNet,
		comdes.TaskSpec{PeriodNs: 1_000_000, OffsetNs: 1_000_000, DeadlineNs: 500_000})
	if err != nil {
		t.Fatal(err)
	}

	sys := comdes.NewSystem("collide")
	for _, a := range []*comdes.Actor{p1, p2, cons} {
		if err := sys.AddActor(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Bind("sa", "p1", "v", "cons", "a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Bind("sb", "p2", "v", "cons", "b"); err != nil {
		t.Fatal(err)
	}
	for actor, node := range map[string]string{"p1": "n1", "p2": "n2", "cons": "n3"} {
		if err := sys.Place(actor, node); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// clusterTrace is everything a mode change could perturb: the raw UART
// event stream per node plus a clock/network/bus-stats summary.
type clusterTrace struct {
	uart    map[string][]byte
	summary string
}

// collectTrace advances cl in 1 ms host slices (the repro session cadence,
// so each slice is a separate RunUntil with its own parallel windows) and
// drains every node's UART after each slice.
func collectTrace(t *testing.T, cl *Cluster, ms int) clusterTrace {
	t.Helper()
	tr := clusterTrace{uart: map[string][]byte{}}
	for i := 0; i < ms; i++ {
		cl.RunUntil(cl.Now() + 1_000_000)
		for _, n := range cl.Nodes() {
			tr.uart[n] = append(tr.uart[n], cl.Boards[n].HostPort().Recv()...)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d sent=%d\n", cl.Now(), cl.Net.Sent)
	for _, n := range cl.Nodes() {
		if err := cl.Boards[n].Err(); err != nil {
			t.Fatalf("node %s: %v", n, err)
		}
		if st, ok := cl.BusStats(n); ok {
			fmt.Fprintf(&b, "%s %+v\n", n, st)
		}
	}
	tr.summary = b.String()
	return tr
}

func diffTraces(t *testing.T, serial, parallel clusterTrace) {
	t.Helper()
	if serial.summary != parallel.summary {
		t.Errorf("summaries diverge:\nserial:   %sparallel: %s", serial.summary, parallel.summary)
	}
	for n, want := range serial.uart {
		if len(want) == 0 {
			t.Errorf("node %s emitted no UART traffic — degenerate comparison", n)
		}
		if !bytes.Equal(want, parallel.uart[n]) {
			t.Errorf("node %s UART stream diverges (%d vs %d bytes)", n, len(want), len(parallel.uart[n]))
		}
	}
}

// TestClusterSameInstantPinned proves the collision the equivalence sweep
// relies on actually exists: both frames arrive at n3 on the same
// nanosecond (t = 1 ms), which is also cons's first release instant.
func TestClusterSameInstantPinned(t *testing.T) {
	cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000, Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	n3 := cl.Boards["n3"]
	read := func(sym string) float64 {
		idx, ok := n3.Prog.Symbols.Index(sym)
		if !ok {
			t.Fatalf("symbol %s missing", sym)
		}
		v, err := n3.LoadSym(idx)
		if err != nil {
			t.Fatal(err)
		}
		return v.Float()
	}
	var releases []uint64
	n3.PreLatch = func(now uint64, actor string) { releases = append(releases, now) }
	cl.RunUntil(999_999)
	if a, b := read("cons.a__io"), read("cons.b__io"); a != 0 || b != 0 {
		t.Fatalf("frames (a=%v b=%v) arrived before t=1ms", a, b)
	}
	cl.RunUntil(1_000_000)
	if a, b := read("cons.a__io"), read("cons.b__io"); a != 1 || b != 1 {
		t.Fatalf("frames (a=%v b=%v) not both delivered at t=1ms", a, b)
	}
	if len(releases) != 1 || releases[0] != 1_000_000 {
		t.Fatalf("consumer releases = %v, want exactly [1000000]", releases)
	}
}

// TestClusterSameInstantSerialParallelIdentical is the tentpole's hard
// invariant at test scale: serial and parallel execution of the collision
// model produce byte-identical per-node traces, across constant-latency
// (parallel forced) and TDMA configurations with jitter and seeded loss.
// Run under -race in CI.
func TestClusterSameInstantSerialParallelIdentical(t *testing.T) {
	bus := func(jitter, loss uint64) *dtm.BusSchedule {
		return &dtm.BusSchedule{
			Slots: []dtm.BusSlot{{Owner: "n1", LenNs: 100_000}, {Owner: "n2", LenNs: 100_000}},
			GapNs: 50_000, JitterNs: jitter, LossPerMille: uint32(loss), Seed: 2010,
		}
	}
	cases := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"const-latency", ClusterConfig{LatencyNs: 500_000}},
		{"tdma", ClusterConfig{LatencyNs: 100_000, Bus: bus(0, 0), Board: Config{Baud: 2_000_000}}},
		{"tdma-jitter-loss", ClusterConfig{LatencyNs: 100_000, Bus: bus(20_000, 100), Board: Config{Baud: 2_000_000}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			build := func(exec ExecMode) *Cluster {
				cfg := tc.cfg
				cfg.Exec = exec
				cl, err := BuildCluster(sameInstantSystem(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			serial, parallel := build(ExecSerial), build(ExecParallel)
			if serial.Parallel() || !parallel.Parallel() {
				t.Fatalf("exec modes not honoured: serial=%v parallel=%v", serial.Parallel(), parallel.Parallel())
			}
			const ms = 50
			diffTraces(t, collectTrace(t, serial, ms), collectTrace(t, parallel, ms))
			for _, cl := range []*Cluster{serial, parallel} {
				v, err := cl.Boards["n3"].ReadOutput("cons", "s")
				if err != nil {
					t.Fatal(err)
				}
				// Both ramps crossed: the sum tracks p1+p2 with pipeline lag.
				if v.Float() < 80 {
					t.Errorf("consumer sum = %v after %d ms", v, ms)
				}
			}
		})
	}
}

// TestClusterRingSerialParallelIdentical sweeps the equivalence at fan-out:
// an 8-node token ring on an 8-slot TDMA bus, every node both producing and
// consuming cross-node frames every millisecond.
func TestClusterRingSerialParallelIdentical(t *testing.T) {
	build := func(exec ExecMode) *Cluster {
		sys, err := models.RingCluster(8)
		if err != nil {
			t.Fatal(err)
		}
		var slots []dtm.BusSlot
		for i := 0; i < 8; i++ {
			slots = append(slots, dtm.BusSlot{Owner: fmt.Sprintf("node%02d", i), LenNs: 50_000})
		}
		cl, err := BuildCluster(sys, ClusterConfig{
			LatencyNs: 100_000,
			Bus:       &dtm.BusSchedule{Slots: slots, GapNs: 10_000, JitterNs: 5_000, Seed: 42},
			Board:     Config{Baud: 2_000_000},
			Exec:      exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	serial, parallel := build(ExecSerial), build(ExecParallel)
	const ms = 40
	st, pt := collectTrace(t, serial, ms), collectTrace(t, parallel, ms)
	diffTraces(t, st, pt)
	if serial.Net.Sent == 0 {
		t.Fatal("token never crossed the ring")
	}
}

// TestClusterRunUntilReentrantPanics: a RunUntil issued from inside the
// run — here a board release hook, the place host tooling is most tempted
// to do it — must panic loudly in both modes instead of corrupting the
// shared event heap (serial) or the worker pool (parallel).
func TestClusterRunUntilReentrantPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		exec ExecMode
	}{{"serial", ExecSerial}, {"parallel", ExecParallel}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000, Exec: tc.exec})
			if err != nil {
				t.Fatal(err)
			}
			// In parallel mode the hook runs on a worker goroutine, so the
			// panic must be recovered where it is raised.
			var msg any
			var once sync.Once
			cl.Boards["n1"].PreLatch = func(now uint64, actor string) {
				once.Do(func() {
					defer func() { msg = recover() }()
					cl.RunUntil(now + 1)
				})
			}
			cl.RunUntil(5_000_000)
			if s, ok := msg.(string); !ok || s != "target: re-entrant Cluster.RunUntil" {
				t.Fatalf("re-entrant RunUntil panic = %v", msg)
			}
			// The guard must have been released: a fresh top-level call works.
			cl.RunUntil(6_000_000)
			if cl.Now() != 6_000_000 {
				t.Fatalf("cluster wedged after recovered re-entrant call: now=%d", cl.Now())
			}
		})
	}
}

// TestClusterRestoreModeMismatch: serial and parallel snapshots carry their
// pending events on different clocks (one shared kernel vs one per node),
// so restoring across modes must be refused, both ways.
func TestClusterRestoreModeMismatch(t *testing.T) {
	build := func(exec ExecMode) *Cluster {
		cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000, Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	serial, parallel := build(ExecSerial), build(ExecParallel)
	serial.RunUntil(5_000_000)
	parallel.RunUntil(5_000_000)
	ss, err := serial.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := parallel.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Parallel || ss.Parallel {
		t.Fatalf("snapshot mode flags: serial=%v parallel=%v", ss.Parallel, ps.Parallel)
	}
	if err := build(ExecParallel).Restore(ss); err == nil || !strings.Contains(err.Error(), "serial-mode snapshot") {
		t.Fatalf("serial->parallel restore: %v", err)
	}
	if err := build(ExecSerial).Restore(ps); err == nil || !strings.Contains(err.Error(), "parallel-mode snapshot") {
		t.Fatalf("parallel->serial restore: %v", err)
	}
}

// TestClusterParallelCheckpointRoundTrip: snapshot a parallel
// constant-latency cluster mid-run, restore through the serialized form
// into a fresh parallel cluster, and require the continuation to end
// byte-identical to the uninterrupted run. (The TDMA variants are covered
// by TestClusterShardCountsIdentical and TestClusterBacklogSnapshotsPinned.)
func TestClusterParallelCheckpointRoundTrip(t *testing.T) {
	build := func() *Cluster {
		cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000, Exec: ExecParallel})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	const cut, end = 7_000_000, 50_000_000

	full := build()
	full.RunUntil(end)
	fullFinal, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	orig := build()
	orig.RunUntil(cut)
	cs, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}

	fresh := build()
	var decoded ClusterState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	fresh.RunUntil(end)
	freshFinal, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(fullFinal)
	b, _ := json.Marshal(freshFinal)
	if !bytes.Equal(a, b) {
		t.Fatal("restored parallel cluster diverges from the uninterrupted run")
	}
}

// TestClusterBusStatsUnknown: the ok bool separates "unknown to the bus"
// from "slot owner with no traffic" — the zero-value ambiguity satellite.
func TestClusterBusStatsUnknown(t *testing.T) {
	tdma := tdmaCluster(t, twoNodeBus(), 100_000)
	if _, ok := tdma.BusStats("ghost"); ok {
		t.Error("unknown node reported bus stats")
	}
	if st, ok := tdma.BusStats("nodeB"); !ok || st.Enqueued != 0 {
		t.Errorf("idle slot owner: ok=%v stats=%+v (want known, zero)", ok, st)
	}
	flat := distCluster(t, 300_000)
	if _, ok := flat.BusStats("nodeA"); ok {
		t.Error("slot-less network reported bus stats")
	}
}

// TestClusterHoldReusesWorkers: under Hold, every RunUntil reuses one set
// of workers that stay parked between slices. Host instructions sent
// between slices (checked for races under -race) are serviced exactly as
// on the serial executor, the workers — one per shard after the first,
// the caller running shard 0 — are the only extra goroutines while Hold
// is open, and none survives it — also when fn panics.
func TestClusterHoldReusesWorkers(t *testing.T) {
	build := func(exec ExecMode) *Cluster {
		sys, err := models.RingCluster(8)
		if err != nil {
			t.Fatal(err)
		}
		var slots []dtm.BusSlot
		for i := 0; i < 8; i++ {
			slots = append(slots, dtm.BusSlot{Owner: fmt.Sprintf("node%02d", i), LenNs: 50_000})
		}
		cl, err := BuildCluster(sys, ClusterConfig{
			LatencyNs: 100_000,
			Bus:       &dtm.BusSchedule{Slots: slots, GapNs: 10_000, JitterNs: 5_000, LossPerMille: 100, Seed: 42},
			Board:     Config{Baud: 2_000_000},
			Exec:      exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	// drive runs 30 one-millisecond slices, draining every UART and sending
	// every node a write and a read of its bus drop counter after each.
	drive := func(cl *Cluster) map[string][]byte {
		uart := map[string][]byte{}
		for i := 0; i < 30; i++ {
			cl.RunUntil(cl.Now() + 1_000_000)
			for _, n := range cl.Nodes() {
				port := cl.Boards[n].HostPort()
				uart[n] = append(uart[n], port.Recv()...)
				for _, in := range []protocol.Instruction{
					{Type: protocol.InWriteVar, Seq: uint16(2 * i), Source: "__busdrops", Value: float64(i)},
					{Type: protocol.InReadVar, Seq: uint16(2*i + 1), Source: "__busdrops"},
				} {
					wire, err := protocol.EncodeInstruction(in)
					if err != nil {
						t.Fatal(err)
					}
					port.Send(wire)
				}
			}
		}
		return uart
	}

	want := drive(build(ExecSerial))
	cl := build(ExecParallel)
	before := runtime.NumGoroutine()
	var got map[string][]byte
	cl.Hold(func() {
		if n, want := runtime.NumGoroutine()-before, len(cl.shards)-1; n != want {
			t.Errorf("Hold started %d goroutines, want one per shard after the first (%d)", n, want)
		}
		got = drive(cl)
	})
	for n, w := range want {
		if !bytes.Contains(w, []byte("__busdrops")) {
			t.Fatalf("node %s never acknowledged an instruction", n)
		}
		if !bytes.Equal(got[n], w) {
			t.Errorf("node %s UART stream under Hold diverges from serial (%d vs %d bytes)", n, len(got[n]), len(w))
		}
	}
	waitWorkersGone(t, before)

	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the fn's panic", r)
			}
		}()
		cl.Hold(func() {
			cl.RunUntil(cl.Now() + 1_000_000)
			panic("boom")
		})
	}()
	waitWorkersGone(t, before)
	cl.RunUntil(cl.Now() + 1_000_000)
	waitWorkersGone(t, before)
}

// waitWorkersGone waits until the goroutine count is back to want; a
// stopped worker is still counted until its last deferred call returns.
func waitWorkersGone(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker goroutines outlived their Hold", runtime.NumGoroutine()-want)
		}
		runtime.Gosched()
	}
}

// standardBusCluster builds sys on the TDMA schedule the gmdf CLI and the
// farm put under a placed model: 100 µs slot per node, 50 µs gaps, 20 µs
// release jitter, 10% seeded loss, 100 µs propagation, 2 Mbaud boards.
func standardBusCluster(t *testing.T, sys func() (*comdes.System, error), exec ExecMode) *Cluster {
	t.Helper()
	s, err := sys()
	if err != nil {
		t.Fatal(err)
	}
	bus := &dtm.BusSchedule{GapNs: 50_000, JitterNs: 20_000, LossPerMille: 100, Seed: 2010}
	for _, node := range s.Nodes() {
		bus.Slots = append(bus.Slots, dtm.BusSlot{Owner: node, LenNs: 100_000})
	}
	cl, err := BuildCluster(s, ClusterConfig{LatencyNs: 100_000, Bus: bus, Board: Config{Baud: 2_000_000}, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// snapshotJSON is the serialized checkpoint of cl at a slice boundary.
func snapshotJSON(t *testing.T, cl *Cluster) []byte {
	t.Helper()
	st, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestClusterShardCountsIdentical forces the parallel executor onto 1, 2,
// 3, 5 and 16 shards whatever the host's core count. Every shard count
// must reproduce the serial run's UART streams, bus stats and clock byte
// for byte, and checkpoint to the same JSON as every other shard count —
// at a cut between slices, at the end, and after a restore at the cut
// into a fresh cluster with a different shard count. Run under -race in
// CI.
func TestClusterShardCountsIdentical(t *testing.T) {
	cases := []struct {
		name string
		sys  func() (*comdes.System, error)
	}{
		{"ring16", func() (*comdes.System, error) { return models.RingCluster(16) }},
		{"dist", models.Distributed},
	}
	const cut, ms = 15, 30
	for _, m := range cases {
		t.Run(m.name, func(t *testing.T) {
			want := collectTrace(t, standardBusCluster(t, m.sys, ExecSerial), ms)
			var wantCut, wantEnd []byte
			for _, n := range []int{1, 2, 3, 5, 16} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					cl := standardBusCluster(t, m.sys, ExecParallel)
					cl.setShards(n)
					if got := len(cl.shards); got != min(n, len(cl.Nodes())) {
						t.Fatalf("%d shards, want %d", got, min(n, len(cl.Nodes())))
					}
					pre := collectTrace(t, cl, cut)
					atCut := snapshotJSON(t, cl)

					fresh := standardBusCluster(t, m.sys, ExecParallel)
					fresh.setShards(n%3 + 1)
					var st ClusterState
					if err := json.Unmarshal(atCut, &st); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Restore(&st); err != nil {
						t.Fatal(err)
					}
					for _, run := range []*Cluster{cl, fresh} {
						post := collectTrace(t, run, ms-cut)
						got := clusterTrace{uart: map[string][]byte{}, summary: post.summary}
						for node, b := range pre.uart {
							got.uart[node] = append(append([]byte(nil), b...), post.uart[node]...)
						}
						diffTraces(t, want, got)
					}
					end, freshEnd := snapshotJSON(t, cl), snapshotJSON(t, fresh)
					if !bytes.Equal(end, freshEnd) {
						t.Error("cluster restored at the cut checkpoints differently from the uninterrupted run")
					}
					if wantCut == nil {
						wantCut, wantEnd = atCut, end
					}
					if !bytes.Equal(atCut, wantCut) || !bytes.Equal(end, wantEnd) {
						t.Errorf("checkpoint differs from the one-shard run's")
					}
				})
			}
		})
	}
}

// TestClusterShardsFollowCores: BuildCluster sizes the parallel
// executor's shards (ExecParallel, asked for explicitly: the default is
// serial) by GOMAXPROCS, capped at the node count, and on one core it
// starts no goroutine at all — Hold runs every window on the caller.
func TestClusterShardsFollowCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 64} {
		runtime.GOMAXPROCS(procs)
		cl := standardBusCluster(t, func() (*comdes.System, error) { return models.RingCluster(16) }, ExecParallel)
		if want := min(procs, 16); len(cl.shards) != want {
			t.Fatalf("GOMAXPROCS=%d: %d shards, want %d", procs, len(cl.shards), want)
		}
		if procs != 1 {
			continue
		}
		before := runtime.NumGoroutine()
		cl.Hold(func() {
			cl.RunUntil(5_000_000)
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("one-shard Hold runs %d goroutines, want %d", n, before)
			}
		})
		if cl.Net.Sent == 0 {
			t.Fatal("no frame crossed the ring")
		}
	}
}
