package target

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/models"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// backlogCuts are the snapshot instants of the backlog tests: off the 1 ms
// slice grid, from an almost empty bus to a TX backlog of thousands of
// frames on RingCluster(16) under the standard TDMA bus.
var backlogCuts = []uint64{
	1_000_000 + 12_345,
	37_000_000 + 12_345,
	777_000_000 + 12_345,
	2_501_000_000 + 12_345,
}

// backlogContinueNs is how far each restored cluster runs past its cut
// before it is compared with the uninterrupted run.
const backlogContinueNs = 20_000_000

func ring16(t *testing.T) *Cluster {
	t.Helper()
	return standardBusCluster(t, func() (*comdes.System, error) { return models.RingCluster(16) })
}

// standardBusCluster builds sys on the TDMA schedule the gmdf CLI and the
// farm put under a placed model: 100 µs slot per node, 50 µs gaps, 20 µs
// release jitter, 10% seeded loss, 100 µs propagation, 2 Mbaud boards.
func standardBusCluster(t *testing.T, sys func() (*comdes.System, error)) *Cluster {
	t.Helper()
	s, err := sys()
	if err != nil {
		t.Fatal(err)
	}
	bus := &dtm.BusSchedule{GapNs: 50_000, JitterNs: 20_000, LossPerMille: 100, Seed: 2010}
	for _, node := range s.Nodes() {
		bus.Slots = append(bus.Slots, dtm.BusSlot{Owner: node, LenNs: 100_000})
	}
	cl, err := BuildCluster(s, ClusterConfig{LatencyNs: 100_000, Bus: bus, Board: Config{Baud: 2_000_000}})
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

// advance runs cl to t in host slices of at most 1 ms, draining every
// node's UART after each so the line state stays small.
func advance(cl *Cluster, t uint64) {
	for cl.Now() < t {
		cl.RunUntil(min(cl.Now()+1_000_000, t))
		for _, n := range cl.nodes {
			cl.Boards[n].HostPort().Recv()
		}
	}
}

// TestClusterBacklogSnapshotsPinned pins the sha256 of the snapshot JSON
// of RingCluster(16) on the standard bus at every backlog cut, and
// restores each cut into a fresh cluster: the continuation
// must checkpoint to the same bytes as the uninterrupted run. The digests
// in testdata were recorded before the TX queue armed only its head, so
// they hold the checkpoint format to the one written while every queued
// departure and delivery sat in the kernel heap.
func TestClusterBacklogSnapshotsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2.5 virtual s of a 16-node cluster")
	}
	golden := filepath.Join("testdata", "backlog_snapshots.json")
	// The pins keep the file's historical shape: digests keyed by mode,
	// of which only the serial kernel is left.
	got := map[string]map[string]string{"serial": {}}
	full := ring16(t)
	for _, cut := range backlogCuts {
		advance(full, cut)
		atCut := snapshotJSON(t, full)
		sum := sha256.Sum256(atCut)
		got["serial"][fmt.Sprint(cut)] = hex.EncodeToString(sum[:])

		var st ClusterState
		if err := json.Unmarshal(atCut, &st); err != nil {
			t.Fatal(err)
		}
		checkHeldBack(t, &st)
		fresh := ring16(t)
		if err := fresh.Restore(&st); err != nil {
			t.Fatalf("restore at %d: %v", cut, err)
		}
		if again := snapshotJSON(t, fresh); !bytes.Equal(again, atCut) {
			t.Errorf("at %d: restored cluster snapshots differently", cut)
		}
		advance(fresh, cut+backlogContinueNs)
		resumed := snapshotJSON(t, fresh)
		advance(full, cut+backlogContinueNs)
		if !bytes.Equal(resumed, snapshotJSON(t, full)) {
			t.Errorf("cluster restored at %d diverges from the uninterrupted run", cut)
		}
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v — run `go test -run %s -update ./internal/target`", err, t.Name())
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for mode, cuts := range want {
		for cut, sum := range cuts {
			if got[mode][cut] != sum {
				t.Errorf("%s snapshot at %s ns: sha256 %s, pinned %s", mode, cut, got[mode][cut], sum)
			}
		}
	}
	if len(want) != 1 || len(want["serial"]) != len(backlogCuts) {
		t.Errorf("golden pins %v, want %d serial cuts", want, len(backlogCuts))
	}
}

// checkHeldBack requires st to list the schedule instant of every event
// the bus holds back from the heap: the departure of each undeparted frame
// and the delivery of each undeparted frame that is not lost.
func checkHeldBack(t *testing.T, st *ClusterState) {
	t.Helper()
	ks := &st.Kernel
	for _, f := range st.Net.Flights {
		if f.Departed || f.Src == "" {
			continue
		}
		if at, ok := ks.SchedAts[f.DepartSeq]; !ok || at != f.Enq {
			t.Fatalf("queued %s frame of %s: departure seq %d scheduled at %d (listed %v), want %d", f.Signal, f.Src, f.DepartSeq, at, ok, f.Enq)
		}
		if f.Lost {
			continue
		}
		if at, ok := ks.SchedAts[f.Seq]; !ok || at != f.Enq {
			t.Fatalf("queued %s frame of %s: delivery seq %d scheduled at %d (listed %v), want %d", f.Signal, f.Src, f.Seq, at, ok, f.Enq)
		}
	}
}

// TestClusterBacklogHeapBounded: the standard bus cannot drain
// RingCluster(16)'s traffic, so after 2 virtual s its TX queues hold
// thousands of frames — yet the serial kernel's heap holds a few events
// per node, because only the head of each queue is armed and deliveries
// are armed at departure.
func TestClusterBacklogHeapBounded(t *testing.T) {
	cl := ring16(t)
	advance(cl, 2_000_000_000)
	if q := cl.Net.Queued(); q <= 10_000 {
		t.Fatalf("%d frames queued after 2 s, want a backlog > 10000", q)
	}
	t.Logf("%d frames queued, %d events in the heap", cl.Net.Queued(), cl.Kernel.Pending())
	if p, bound := cl.Kernel.Pending(), 4*len(cl.nodes); p > bound {
		t.Fatalf("%d events in the kernel heap with %d frames queued, want <= %d", p, cl.Net.Queued(), bound)
	}
}
