package target

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comdes"
	"repro/internal/value"
)

// routesSystem has fan-out of one signal to two nodes (fan), one signal
// fed to two consumers on one node (up, listed q before p), intra-node
// bindings and two actors (p, q) on one node: every case the binding
// indexes of BuildCluster must resolve in sys.Bindings order.
func routesSystem(t *testing.T) *comdes.System {
	t.Helper()
	sys := comdes.NewSystem("routes")
	for _, name := range []string{"p", "q", "r", "s"} {
		net := comdes.NewNetwork(name+"net",
			[]comdes.Port{{Name: "a", Kind: value.Float}, {Name: "b", Kind: value.Float}},
			[]comdes.Port{{Name: "v", Kind: value.Float}})
		net.MustAdd(comdes.MustComponent("sum", "add", nil))
		net.MustConnect("", "a", "add", "a").
			MustConnect("", "b", "add", "b").
			MustConnect("add", "out", "", "v")
		a, err := comdes.NewActor(name, net, comdes.TaskSpec{PeriodNs: 1_000_000, DeadlineNs: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AddActor(a); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []comdes.Binding{
		{Signal: "fan", FromActor: "p", FromPort: "v", ToActor: "r", ToPort: "a"},
		{Signal: "loc", FromActor: "p", FromPort: "v", ToActor: "q", ToPort: "a"},
		{Signal: "fan", FromActor: "p", FromPort: "v", ToActor: "s", ToPort: "a"},
		{Signal: "up", FromActor: "s", FromPort: "v", ToActor: "q", ToPort: "b"},
		{Signal: "side", FromActor: "r", FromPort: "v", ToActor: "s", ToPort: "b"},
		{Signal: "up", FromActor: "s", FromPort: "v", ToActor: "p", ToPort: "a"},
		{Signal: "self", FromActor: "q", FromPort: "v", ToActor: "p", ToPort: "b"},
		{Signal: "rb", FromActor: "q", FromPort: "v", ToActor: "r", ToPort: "b"},
	} {
		if err := sys.Bind(b.Signal, b.FromActor, b.FromPort, b.ToActor, b.ToPort); err != nil {
			t.Fatal(err)
		}
	}
	for actor, node := range map[string]string{"p": "n1", "q": "n1", "r": "n2", "s": "n3"} {
		if err := sys.Place(actor, node); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestClusterRoutesFollowBindingOrder drives the cluster's publish,
// release and delivery hooks directly and requires the frames sent and the
// inputs written to be exactly those of a scan over sys.Bindings — the
// reference the indexes replace — in the same order.
func TestClusterRoutesFollowBindingOrder(t *testing.T) {
	sys := routesSystem(t)
	cl, err := BuildCluster(sys, ClusterConfig{LatencyNs: 100_000, Exec: ExecSerial})
	if err != nil {
		t.Fatal(err)
	}
	var writes []string
	for _, node := range cl.nodes {
		node := node
		cl.Boards[node].OnInput = func(now uint64, actor, port string, v value.Value) {
			writes = append(writes, fmt.Sprintf("%s:%s.%s=%v", node, actor, port, v.Float()))
		}
	}
	sent := func() []string {
		st, err := cl.Net.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range st.Flights {
			out = append(out, f.Signal+"->"+f.Dst)
		}
		return out
	}

	signals := []string{"fan", "loc", "side", "up", "self", "rb"}
	for _, node := range cl.nodes {
		// Deliveries: a changed inbox value is written to every local
		// consumer of the signal.
		for i, sig := range signals {
			writes = nil
			v := value.F(float64(10 + i))
			cl.inbox[node].Set(sig, v)
			var want []string
			for _, b := range sys.Bindings {
				if b.Signal == sig && sys.NodeOf(b.ToActor) == node {
					want = append(want, fmt.Sprintf("%s:%s.%s=%v", node, b.ToActor, b.ToPort, v.Float()))
				}
			}
			if !slices.Equal(writes, want) {
				t.Errorf("%s inbox change of %s wrote %v, want %v", node, sig, writes, want)
			}
		}
		for _, actor := range sys.Actors {
			if sys.NodeOf(actor.Name()) != node {
				continue
			}
			// Releases: every network-fed input of the actor re-latches
			// from the inbox.
			writes = nil
			cl.Boards[node].preRelease(0, actor.Name())
			var want []string
			for _, b := range sys.Bindings {
				if v := cl.inbox[node].Get(b.Signal); b.ToActor == actor.Name() && sys.NodeOf(b.FromActor) != node && v.IsValid() {
					want = append(want, fmt.Sprintf("%s:%s.%s=%v", node, b.ToActor, b.ToPort, v.Float()))
				}
			}
			if !slices.Equal(writes, want) {
				t.Errorf("%s release of %s wrote %v, want %v", node, actor.Name(), writes, want)
			}
			// Publishes: one frame per cross-node consumer.
			before := sent()
			cl.Boards[node].OnPublish(0, actor.Name(), "v", value.F(1))
			got := sent()[len(before):]
			want = nil
			for _, b := range sys.Bindings {
				if b.FromActor == actor.Name() && b.FromPort == "v" && sys.NodeOf(b.ToActor) != node {
					want = append(want, b.Signal+"->"+sys.NodeOf(b.ToActor))
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s publish of %s.v sent %v, want %v", node, actor.Name(), got, want)
			}
		}
	}
	if len(writes) == 0 || cl.Net.Sent == 0 {
		t.Fatal("degenerate routing test: nothing written or sent")
	}
}
