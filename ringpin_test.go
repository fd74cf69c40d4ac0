package repro

// Byte pins of the cluster_tdma workload: a 16-node token ring on the
// standard TDMA bus (20 µs jitter, 10% loss, fixed seed) run for 2
// virtual s. The pins hold what the target side of a cluster produces —
// the UART line, the deadline latches, the cross-node routes and the bus —
// so any change to how they are computed that moves a byte fails here.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/models"
)

// The pins; a change that moves one must say why the cluster now behaves
// differently.
const (
	ringPinTrace      = "f6ca2ea9b7290f4d0ce9c231b7412462c5217ae04c06d9089ae7aa1907896d37"
	ringPinCheckpoint = "810df18dc4d41b59882d411407b772740e687af826300b5c4f926793109f439c"
	ringPinBoards     = `node00 cycles=178227 instr=120180 uart=111208 dropped=0
node01 cycles=178352 instr=120300 uart=111611 dropped=0
node02 cycles=178352 instr=120300 uart=111364 dropped=0
node03 cycles=178094 instr=120060 uart=110760 dropped=0
node04 cycles=178094 instr=120060 uart=111314 dropped=0
node05 cycles=178094 instr=120060 uart=110821 dropped=0
node06 cycles=178094 instr=120060 uart=110739 dropped=0
node07 cycles=178094 instr=120060 uart=110630 dropped=0
node08 cycles=178094 instr=120060 uart=111471 dropped=0
node09 cycles=178094 instr=120060 uart=111455 dropped=0
node10 cycles=178094 instr=120060 uart=113808 dropped=0
node11 cycles=178094 instr=120060 uart=113504 dropped=0
node12 cycles=178094 instr=120060 uart=113892 dropped=0
node13 cycles=178094 instr=120060 uart=113702 dropped=0
node14 cycles=178094 instr=120060 uart=114413 dropped=0
node15 cycles=178094 instr=120060 uart=114104 dropped=0
`
	ringPinBus = `node00 true {Enqueued:2000 Delivered:747 Dropped:86 Queued:1167 WorstQueueNs:1166700316}
node01 true {Enqueued:2000 Delivered:739 Dropped:94 Queued:1167 WorstQueueNs:1166863144}
node02 true {Enqueued:2000 Delivered:745 Dropped:88 Queued:1167 WorstQueueNs:1167001607}
node03 true {Enqueued:2000 Delivered:758 Dropped:76 Queued:1166 WorstQueueNs:1166169159}
node04 true {Enqueued:2000 Delivered:744 Dropped:90 Queued:1166 WorstQueueNs:1166303934}
node05 true {Enqueued:2000 Delivered:756 Dropped:77 Queued:1166 WorstQueueNs:1166465560}
node06 true {Enqueued:2000 Delivered:757 Dropped:76 Queued:1167 WorstQueueNs:1165202803}
node07 true {Enqueued:2000 Delivered:760 Dropped:73 Queued:1167 WorstQueueNs:1165354100}
node08 true {Enqueued:2000 Delivered:738 Dropped:95 Queued:1167 WorstQueueNs:1165502496}
node09 true {Enqueued:2000 Delivered:738 Dropped:95 Queued:1167 WorstQueueNs:1165665479}
node10 true {Enqueued:2000 Delivered:753 Dropped:80 Queued:1167 WorstQueueNs:1165809171}
node11 true {Enqueued:2000 Delivered:761 Dropped:72 Queued:1167 WorstQueueNs:1165968214}
node12 true {Enqueued:2000 Delivered:751 Dropped:82 Queued:1167 WorstQueueNs:1166117075}
node13 true {Enqueued:2000 Delivered:756 Dropped:77 Queued:1167 WorstQueueNs:1166258908}
node14 true {Enqueued:2000 Delivered:738 Dropped:95 Queued:1167 WorstQueueNs:1166410364}
node15 true {Enqueued:2000 Delivered:746 Dropped:87 Queued:1167 WorstQueueNs:1166553243}
`
)

func ringPinDebugger(t *testing.T) *Debugger {
	t.Helper()
	sys, err := models.RingCluster(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StandardClusterConfig(sys.Nodes(), 0)
	cfg.Bus.Seed = 2010
	dbg, err := DebugCluster(sys, ClusterDebugConfig{Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return dbg
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// ringPinCounters renders every board's cycles, delivered UART bytes and
// dropped frames, and every node's bus statistics, one node a line.
func ringPinCounters(t *testing.T, dbg *Debugger) (boards, bus string) {
	t.Helper()
	var bs, ns strings.Builder
	for _, node := range dbg.Nodes() {
		b := dbg.Node(node)
		ut := b.Link.PortA().Stats()
		fmt.Fprintf(&bs, "%s cycles=%d instr=%d uart=%d dropped=%d\n", node, b.Cycles(), b.InstrumentationCycles(), ut.Bytes, ut.FramesDropped)
		bst, ok := dbg.BusStats(node)
		fmt.Fprintf(&ns, "%s %v %+v\n", node, ok, bst)
	}
	return bs.String(), ns.String()
}

func TestRingClusterPin(t *testing.T) {
	dbg := ringPinDebugger(t)
	if err := dbg.RunNs(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	cp, err := dbg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.RunNs(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	trace := sha([]byte(dbg.Session.Trace.FormatStable()))
	boards, bus := ringPinCounters(t, dbg)
	for _, c := range []struct{ name, got, want string }{
		{"trace", trace, ringPinTrace},
		{"checkpoint", sha(blob), ringPinCheckpoint},
		{"boards", boards, ringPinBoards},
		{"bus", bus, ringPinBus},
	} {
		if c.got != c.want {
			t.Errorf("%s pin moved:\n got  %s\n want %s", c.name, c.got, c.want)
		}
	}

	// The checkpoint taken at 1 s, decoded and restored into a fresh
	// debugger, runs on to the same trace and counters.
	dec, err := checkpoint.Decode(strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := ringPinDebugger(t)
	if err := fresh.RestoreCheckpoint(dec); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RunNs(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if got := sha([]byte(fresh.Session.Trace.FormatStable())); got != trace {
		t.Errorf("restored run's trace digest %s, uninterrupted %s", got, trace)
	}
	if fb, fbus := ringPinCounters(t, fresh); fb != boards || fbus != bus {
		t.Errorf("restored run's counters diverge:\n got  %s\n      %s\n want %s\n      %s", fb, fbus, boards, bus)
	}
}
