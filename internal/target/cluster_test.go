package target

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comdes"
	"repro/internal/protocol"
	"repro/internal/value"
	"repro/models"
)

func distCluster(t testing.TB, latencyNs uint64) *Cluster {
	t.Helper()
	sys, err := models.Distributed()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := BuildCluster(sys, ClusterConfig{LatencyNs: latencyNs})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestClusterTopology(t *testing.T) {
	cl := distCluster(t, 300_000)
	nodes := cl.Nodes()
	if len(nodes) != 2 || nodes[0] != "nodeA" || nodes[1] != "nodeB" {
		t.Fatalf("nodes = %v", nodes)
	}
	for _, n := range nodes {
		if cl.Boards[n] == nil || cl.Board(n) != cl.Boards[n] {
			t.Fatalf("board %s missing", n)
		}
	}
	if cl.Board("ghost") != nil {
		t.Error("ghost board")
	}
	// Each node's program contains only its own actors.
	if cl.Boards["nodeA"].Prog.Unit("consumer") != nil {
		t.Error("consumer compiled onto nodeA")
	}
	if cl.Boards["nodeB"].Prog.Unit("producer") != nil {
		t.Error("producer compiled onto nodeB")
	}
	if cl.Now() != 0 {
		t.Errorf("fresh cluster time = %d", cl.Now())
	}
}

func TestClusterSharedClock(t *testing.T) {
	cl := distCluster(t, 300_000)
	cl.RunUntil(7_500_000)
	if cl.Now() != 7_500_000 {
		t.Fatalf("cluster time = %d", cl.Now())
	}
	for _, n := range cl.Nodes() {
		if cl.Boards[n].Now() != 7_500_000 {
			t.Errorf("board %s time = %d, want shared 7500000", n, cl.Boards[n].Now())
		}
	}
}

// TestClusterLatencyOrdering pins the cross-node delivery instant: the
// producer latches v=1 at its first deadline (t = 1 ms), so the consumer's
// __io input must change exactly LatencyNs later and not before.
func TestClusterLatencyOrdering(t *testing.T) {
	const latency = 300_000
	cl := distCluster(t, latency)
	nodeB := cl.Boards["nodeB"]
	idx, ok := nodeB.Prog.Symbols.Index("consumer.v__io")
	if !ok {
		t.Fatal("consumer input symbol missing")
	}
	read := func() float64 {
		v, err := nodeB.LoadSym(idx)
		if err != nil {
			t.Fatal(err)
		}
		return v.Float()
	}
	cl.RunUntil(1_000_000 + latency - 1)
	if got := read(); got != 0 {
		t.Fatalf("value %v arrived before latency elapsed", got)
	}
	cl.RunUntil(1_000_000 + latency)
	if got := read(); got != 1 {
		t.Fatalf("value = %v at t=deadline+latency, want 1", got)
	}
	if cl.Net.Sent == 0 {
		t.Error("network counted no messages")
	}

	// Successive publishes arrive in order: sample the consumer input at
	// each of its releases and require a non-decreasing ramp.
	var seen []float64
	nodeB.PreLatch = func(now uint64, actor string) {
		seen = append(seen, read())
	}
	cl.RunUntil(cl.Now() + 40_000_000)
	if len(seen) == 0 {
		t.Fatal("consumer never released")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("deliveries reordered: %v", seen)
		}
	}
	if seen[len(seen)-1] <= seen[0] {
		t.Error("ramp never advanced across the network")
	}
}

// TestClusterEndToEnd reproduces the distributed example's observable
// outcome: the consumer doubles the producer's ramp, passively and with
// zero instrumentation.
func TestClusterEndToEnd(t *testing.T) {
	cl := distCluster(t, 300_000)
	cl.RunUntil(100_000_000)
	a, err := cl.Boards["nodeA"].ReadOutput("producer", "v")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Boards["nodeB"].ReadOutput("consumer", "twice")
	if err != nil {
		t.Fatal(err)
	}
	if a.Float() < 40 {
		t.Errorf("producer ramp = %v after 100 ms (50 periods)", a)
	}
	if b.Float() < 2*a.Float()-10 || b.Float() > 2*a.Float() {
		t.Errorf("consumer %v should track ~2x producer %v (pipeline lag allowed)", b, a)
	}
	for _, n := range cl.Nodes() {
		if ic := cl.Boards[n].InstrumentationCycles(); ic != 0 {
			t.Errorf("node %s instrumentation cycles = %d on clean build", n, ic)
		}
		if err := cl.Boards[n].Err(); err != nil {
			t.Errorf("node %s error: %v", n, err)
		}
	}
	if int(cl.Net.Sent) < 40 {
		t.Errorf("network messages = %d, want one per producer deadline", cl.Net.Sent)
	}
}

func TestClusterDefaultLatency(t *testing.T) {
	cl := distCluster(t, 0)
	if cl.Net.LatencyNs != DefaultLatencyNs {
		t.Errorf("default latency = %d, want %d", cl.Net.LatencyNs, DefaultLatencyNs)
	}
}

// TestClusterRemoteNodeBreak arms an on-target breakpoint over a remote
// node's UART: the breakpoint must halt *that node's board* while its
// siblings (sharing the same kernel) keep executing.
func TestClusterRemoteNodeBreak(t *testing.T) {
	cl := distCluster(t, 300_000)
	nodeA, nodeB := cl.Boards["nodeA"], cl.Boards["nodeB"]
	sendIn(t, nodeB, protocol.Instruction{Type: protocol.InSetBreak, Source: "remote-bp", Arg1: "consumer.v >= 8"})
	var dec protocol.Decoder
	var breakEv *protocol.Event
	for i := 0; i < 100 && breakEv == nil; i++ {
		cl.RunUntil(cl.Now() + 1_000_000)
		evs, _ := dec.Feed(nodeB.HostPort().Recv())
		for _, ev := range evs {
			if ev.Type == protocol.EvBreak {
				ev := ev
				breakEv = &ev
			}
		}
	}
	if breakEv == nil {
		t.Fatal("remote node never hit the breakpoint")
	}
	if !nodeB.Halted() {
		t.Fatal("nodeB not halted at its breakpoint")
	}
	if nodeA.Halted() {
		t.Fatal("breakpoint on nodeB halted nodeA")
	}
	if breakEv.Source != "remote-bp" {
		t.Errorf("EvBreak source = %q", breakEv.Source)
	}
	// The rest of the cluster keeps running on the shared clock.
	frozenB, runningA := nodeB.Cycles(), nodeA.Cycles()
	cl.RunUntil(cl.Now() + 20_000_000)
	if nodeB.Cycles() != frozenB {
		t.Error("halted node kept executing")
	}
	if nodeA.Cycles() <= runningA {
		t.Error("sibling node stopped executing")
	}
	// Clear + resume over the same wire revives the node.
	sendIn(t, nodeB, protocol.Instruction{Type: protocol.InClearBreak, Source: "remote-bp"})
	sendIn(t, nodeB, protocol.Instruction{Type: protocol.InResume})
	cl.RunUntil(cl.Now() + 10_000_000)
	if nodeB.Halted() {
		t.Fatal("remote resume not serviced")
	}
	// The resume was serviced at the window's final sync; the next window
	// runs the revived release schedule.
	cl.RunUntil(cl.Now() + 10_000_000)
	if nodeB.Cycles() <= frozenB {
		t.Error("resume did not restart the node")
	}
	for _, n := range cl.Nodes() {
		if err := cl.Boards[n].Err(); err != nil {
			t.Errorf("node %s error: %v", n, err)
		}
	}
}

// TestClusterCrossNodeRelatch pins the re-latching rule: a host-injected
// __io value on a consumer input is overwritten from the node's inbox
// store at the very next release, so stale injections cannot outlive one
// period when a network value exists — reference interpreter semantics.
func TestClusterCrossNodeRelatch(t *testing.T) {
	cl := distCluster(t, 300_000)
	nodeB := cl.Boards["nodeB"]
	ioIdx, ok := nodeB.Prog.Symbols.Index("consumer.v__io")
	if !ok {
		t.Fatal("consumer __io symbol missing")
	}
	latchedIdx, ok := nodeB.Prog.Symbols.Index("consumer.v")
	if !ok {
		t.Fatal("consumer latched symbol missing")
	}
	// Let a few network deliveries land first.
	cl.RunUntil(10_000_000)
	before, err := nodeB.LoadSym(latchedIdx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Float() == 0 {
		t.Fatal("no network value crossed before injection")
	}
	// Inject a bogus value into the __io slot mid-period.
	if err := nodeB.WriteInput("consumer", "v", value.F(999)); err != nil {
		t.Fatal(err)
	}
	v, _ := nodeB.LoadSym(ioIdx)
	if v.Float() != 999 {
		t.Fatalf("injection did not land: %v", v)
	}
	// Consumer releases at 1.5 ms + k·2 ms; run across the next release.
	cl.RunUntil(12_000_000)
	got, err := nodeB.LoadSym(latchedIdx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Float() == 999 {
		t.Fatal("stale injected value survived the release re-latch")
	}
	if got.Float() < before.Float() {
		t.Errorf("latched ramp went backwards: %v -> %v", before, got)
	}
}

// sameInstantSystem is a same-instant collision model: producers p1
// (node n1) and p2 (node n2) both latch at t = 500 µs — p1 via deadline
// 500 µs, p2 via offset 100 µs + deadline 400 µs, so their frames share
// an arrival instant but not a schedule history — and consumer cons
// (node n3) releases at exactly the arrival instant. With a 500 µs constant-latency network, both frames, cons's
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

// TestClusterSameInstantPinned pins the collision: both frames arrive at
// n3 on the same nanosecond (t = 1 ms), which is also cons's first
// release instant, and the consumer releases exactly once there.
func TestClusterSameInstantPinned(t *testing.T) {
	cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000})
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

// TestClusterRunUntilReentrantPanics: a RunUntil issued from inside the
// run — here a board release hook, the place host tooling is most tempted
// to do it — must panic loudly instead of corrupting the shared event
// heap, and the guard must be released afterwards.
func TestClusterRunUntilReentrantPanics(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		var msg any
		done := false
		cl.Boards["n1"].PreLatch = func(now uint64, actor string) {
			if done {
				return
			}
			done = true
			defer func() { msg = recover() }()
			cl.RunUntil(now + 1)
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

// TestClusterRestoreRefusesParallelCheckpoint: a checkpoint of the dist
// model at 60 ms written by the removed parallel executor, whose boards
// each carry a kernel, is refused with ErrParallelCheckpoint, and the
// refusal leaves the cluster untouched.
func TestClusterRestoreRefusesParallelCheckpoint(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy_parallel_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cp struct {
		Cluster *ClusterState `json:"cluster"`
	}
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	cl := standardBusCluster(t, models.Distributed)
	cl.RunUntil(3_000_000)
	before := snapshotJSON(t, cl)
	if err := cl.Restore(cp.Cluster); !errors.Is(err, ErrParallelCheckpoint) {
		t.Fatalf("restore of a parallel checkpoint: %v, want ErrParallelCheckpoint", err)
	}
	if !bytes.Equal(snapshotJSON(t, cl), before) {
		t.Fatal("refused restore changed the cluster")
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
