package serial

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"testing"
)

// TestLinkSnapshotRestore freezes a line with bytes mid-flight in both
// directions and undrained rx, round-trips the state through JSON, and
// verifies deliveries complete at the original instants on the restored
// link.
func TestLinkSnapshotRestore(t *testing.T) {
	l := MustLink(115200)
	l.PortA().Send([]byte("hello"))
	l.PortB().Send([]byte("cmd"))
	l.Advance(2 * l.ByteTimeNs()) // two bytes landed, three in flight

	st := l.Snapshot()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 LinkState
	if err := json.Unmarshal(blob, &st2); err != nil {
		t.Fatal(err)
	}

	// Control: finish the original line.
	l.Advance(10 * l.ByteTimeNs())
	wantB := l.PortB().Recv()
	wantA := l.PortA().Recv()
	wantStats := l.PortA().Stats()

	// Restored line must deliver the same bytes with the same stats.
	l2 := MustLink(115200)
	if err := l2.Restore(st2); err != nil {
		t.Fatal(err)
	}
	if l2.Now() != 2*l.ByteTimeNs() {
		t.Fatalf("restored clock %d", l2.Now())
	}
	l2.Advance(10 * l.ByteTimeNs())
	if !bytes.Equal(l2.PortB().Recv(), wantB) || !bytes.Equal(l2.PortA().Recv(), wantA) {
		t.Fatal("restored line delivered different bytes")
	}
	if l2.PortA().Stats() != wantStats {
		t.Fatalf("stats diverged: %+v vs %+v", l2.PortA().Stats(), wantStats)
	}

	// Baud mismatch is rejected.
	if err := MustLink(9600).Restore(st2); err == nil {
		t.Fatal("expected baud mismatch error")
	}
}

// TestLinkRestoreMergesRuns restores hand-built per-byte queues — gaps,
// duplicate arrivals, arrivals out of order, a byte time of zero — and the
// UART states of both stored v1 checkpoints: consecutive bytes exactly
// one byte time apart share a run, every other byte starts one, and each
// state snapshots back to the same JSON bytes and delivers like the
// per-byte reference.
func TestLinkRestoreMergesRuns(t *testing.T) {
	q := func(arrivals ...uint64) []InflightState {
		out := make([]InflightState, len(arrivals))
		for i, at := range arrivals {
			out[i] = InflightState{B: byte(i + 1), Arrival: at}
		}
		return out
	}
	const bt = 5000 // 2 Mbaud
	type restoreCase struct {
		name  string
		baud  int
		st    LinkState
		runs  int      // runs in direction 0 after the restore; -1: not checked
		probe []uint64 // Advance instants after the restore
	}
	cases := []restoreCase{
		{"one run", 2_000_000, LinkState{Now: 0, Dirs: [2]DirectionState{{Queue: q(bt, 2*bt, 3*bt), LineFree: 3 * bt}}}, 1, []uint64{bt, 2*bt + 1}},
		{"gap", 2_000_000, LinkState{Now: 0, Dirs: [2]DirectionState{{Queue: q(bt, 2*bt, 9*bt, 10*bt), LineFree: 10 * bt}}}, 2, []uint64{2 * bt, 8 * bt, 9 * bt}},
		{"duplicates", 2_000_000, LinkState{Now: 0, Dirs: [2]DirectionState{{Queue: q(bt, bt, bt, 2*bt), LineFree: 2 * bt}}}, 3, []uint64{bt - 1, bt}},
		{"out of order", 2_000_000, LinkState{Now: 10, Dirs: [2]DirectionState{{Queue: q(8*bt, 9*bt, 2*bt, 3*bt), LineFree: 9 * bt}, {Queue: q(bt)}}}, 2, []uint64{3 * bt, 9 * bt}},
		{"wrapped", 2_000_000, LinkState{Now: math.MaxUint64 - 10, Dirs: [2]DirectionState{{Queue: q(math.MaxUint64-bt, math.MaxUint64, bt-1, bt-1), LineFree: bt - 1}}}, 3, []uint64{math.MaxUint64}},
		{"zero byte time", 20_000_000_000, LinkState{Now: 0, Dirs: [2]DirectionState{{Queue: q(7, 7, 7, 8), LineFree: 8}}}, 2, []uint64{7, 8}},
	}
	for _, v1 := range []string{"../../testdata/v1_heating_137ms.json", "../../testdata/v1_dist_51ms.json"} {
		for _, st := range storedLinkStates(t, v1) {
			cases = append(cases, restoreCase{v1, st.Baud, st, -1, []uint64{st.Now + 100*bt, math.MaxUint64}})
		}
	}
	for _, c := range cases {
		c.st.Baud = c.baud
		want, err := json.Marshal(c.st)
		if err != nil {
			t.Fatal(err)
		}
		l, ref := MustLink(c.baud), newRefLink(c.baud)
		if err := l.Restore(c.st); err != nil {
			t.Fatal(err)
		}
		ref.restore(c.st)
		if got, err := json.Marshal(l.Snapshot()); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot after restore:\n got  %s\n want %s", c.name, got, want)
		}
		if n := len(l.dirs[0].runs) - l.dirs[0].rhead; c.runs >= 0 && n != c.runs {
			t.Errorf("%s: %d runs, want %d", c.name, n, c.runs)
		}
		for _, now := range c.probe {
			l.Advance(now)
			ref.Advance(now)
			if msg := diffRef(l, ref); msg != "" {
				t.Fatalf("%s: after Advance(%d): %s", c.name, now, msg)
			}
		}
	}
}

// storedLinkStates returns the UART line states in a stored checkpoint
// file: the board's, or every cluster node's in node order.
func storedLinkStates(t *testing.T, path string) []LinkState {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cp struct {
		Board *struct {
			Link LinkState `json:"link"`
		} `json:"board"`
		Cluster *struct {
			Boards map[string]struct {
				Link LinkState `json:"link"`
			} `json:"boards"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	var out []LinkState
	if cp.Board != nil {
		out = append(out, cp.Board.Link)
	}
	if cp.Cluster != nil {
		for _, node := range slices.Sorted(maps.Keys(cp.Cluster.Boards)) {
			out = append(out, cp.Cluster.Boards[node].Link)
		}
	}
	if len(out) == 0 || len(out[0].Dirs[0].Queue) == 0 {
		t.Fatalf("%s: no UART bytes in flight", path)
	}
	return out
}
