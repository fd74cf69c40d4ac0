package farm

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// TestCreateFromSource: a session created from scenario DSL source
// produces the exact trace bytes a session of the equivalent built-in
// model produces — the server-side front end builds the same system the
// constructor does.
func TestCreateFromSource(t *testing.T) {
	src, err := os.ReadFile("../../examples/dsl/heating.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, Options{})
	created, err := cl.Create(CreateParams{Source: string(src), SourceName: "heating.gmdf"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(created.Model, "dsl:") {
		t.Fatalf("source session model label = %q, want dsl:<digest>", created.Model)
	}
	if _, err := cl.Attach(created.Session); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunFor(created.Session, 300); err != nil {
		t.Fatal(err)
	}
	remote, err := cl.TraceStable(created.Session)
	if err != nil {
		t.Fatal(err)
	}
	if want := inProcessTrace(t, "heating", 300); remote.Stable != want {
		t.Fatalf("DSL session trace differs from the heating model trace (%d vs %d bytes)",
			len(remote.Stable), len(want))
	}
}

// TestCreateFromSourceSharesProgram: identical source text compiles once;
// the program cache keys on the source digest.
func TestCreateFromSourceSharesProgram(t *testing.T) {
	src, err := os.ReadFile("../../examples/dsl/heating.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, Options{})
	for i := 0; i < 3; i++ {
		if _, err := cl.Create(CreateParams{Source: string(src)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.StatsSnapshot().ProgramsCached; got != 1 {
		t.Fatalf("ProgramsCached = %d after 3 identical source creates, want 1", got)
	}
}

// TestCreateFromBadSourceRejected: the server gates creates on the full
// checker and the wire error carries rendered file:line:col diagnostics.
func TestCreateFromBadSourceRejected(t *testing.T) {
	_, cl := startServer(t, Options{})
	bad := "system x\n\nactor a {\n    period 10ms\n    deadline 20ms\n    network n {\n        in v float\n        out w float\n        wire .v -> .w\n    }\n}\n"
	_, err := cl.Create(CreateParams{Source: bad, SourceName: "bad.gmdf"})
	if err == nil {
		t.Fatal("bad scenario source was accepted")
	}
	for _, want := range []string{"scenario rejected", "bad.gmdf:5:14", "deadline must be in (0, period]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("create error missing %q:\n%s", want, err)
		}
	}
}

// TestCreateSourceSizeLimit: MaxSourceBytes bounds what the front end
// will even read; negative disables DSL creates outright.
func TestCreateSourceSizeLimit(t *testing.T) {
	_, cl := startServer(t, Options{MaxSourceBytes: 16})
	_, err := cl.Create(CreateParams{Source: "system oversized_scenario_name\n"})
	if err == nil || !strings.Contains(err.Error(), "limit is 16") {
		t.Fatalf("oversized source: err = %v, want size-limit error", err)
	}

	_, cl2 := startServer(t, Options{MaxSourceBytes: -1})
	_, err = cl2.Create(CreateParams{Source: "system x\n"})
	if err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("disabled DSL creates: err = %v, want disabled error", err)
	}
}

// TestRequestLineBounded: a request line longer than the bound derived
// from MaxSourceBytes gets a wire error and its connection is closed,
// while a create carrying a maximum-size source whose every padding byte
// JSON-escapes to six still succeeds, and a session on another connection
// keeps its byte-identical trace throughout.
func TestRequestLineBounded(t *testing.T) {
	srv, cl := startServer(t, Options{})
	ref, err := cl.Create(CreateParams{Model: "dist"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunFor(ref.Session, 40); err != nil {
		t.Fatal(err)
	}
	want, err := cl.TraceStable(ref.Session)
	if err != nil {
		t.Fatal(err)
	}
	control, err := cl.Create(CreateParams{Model: "dist"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunFor(control.Session, 20); err != nil {
		t.Fatal(err)
	}

	limit := maxRequestBytes(srv.opts.MaxSourceBytes)
	nc, err := net.Dial("tcp", seedAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go func() {
		// Ten times the bound: the client is still writing when the server
		// refuses the line, which must not reset the refusal away.
		line := `{"id":1,"method":"create","params":{"source":"` + strings.Repeat("x", 10*limit) + "\"}}\n"
		_, _ = io.WriteString(nc, line)
	}()
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	reply, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no reply to an oversized request line: %v", err)
	}
	var msg ServerMsg
	if err := json.Unmarshal(reply, &msg); err != nil || !strings.Contains(msg.Error, "request line too long") {
		t.Fatalf("oversized request line: reply %s (%v), want a line-length error", reply, err)
	}
	if rest, err := br.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("connection still open after the refusal: read %q, %v", rest, err)
	}

	src, err := os.ReadFile("../../examples/dsl/heating.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	pad := srv.opts.MaxSourceBytes - len(src) - len("#\n")
	big := string(src) + "#" + strings.Repeat("<", pad) + "\n"
	if len(big) != srv.opts.MaxSourceBytes {
		t.Fatalf("source is %d bytes, want %d", len(big), srv.opts.MaxSourceBytes)
	}
	wire, err := json.Marshal(Request{Method: "create", Params: mustJSON(t, CreateParams{Source: big})})
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) < 6*pad {
		t.Fatalf("create line is %d bytes, want the padding escaped six-fold (>= %d)", len(wire), 6*pad)
	}
	if _, err := cl.Create(CreateParams{Source: big}); err != nil {
		t.Fatalf("create with a %d-byte source: %v", len(big), err)
	}

	if _, err := cl.RunFor(control.Session, 20); err != nil {
		t.Fatal(err)
	}
	got, err := cl.TraceStable(control.Session)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stable != want.Stable {
		t.Fatal("a session on another connection diverged across the refused request")
	}
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// twoGateSrc places one state machine on each of two nodes. Each gate
// opens once its constant input arrives.
const twoGateSrc = `system gates

actor left {
    on n1
    period 2ms
    deadline 1ms
    network ln {
        out open bool
        block const one { value = 1.0 }
        machine gate {
            in v float
            out open bool
            initial Closed
            state Closed { open = "false" }
            state Open   { open = "true" }
            transition up: Closed -> Open when "v > 0.5"
        }
        wire one.out -> gate.v
        wire gate.open -> .open
    }
}

actor right {
    on n2
    period 2ms
    offset 1ms
    deadline 1ms
    network rn {
        out open bool
        block const one { value = 1.0 }
        machine gate {
            in v float
            out open bool
            initial Closed
            state Closed { open = "false" }
            state Open   { open = "true" }
            transition up: Closed -> Open when "v > 0.5"
        }
        wire one.out -> gate.v
        wire gate.open -> .open
    }
}

run 20ms
`

// TestClusterStateBreakOffRemoteNode: over the wire, a state breakpoint
// on a cluster arms on the target only for a machine on the node the
// session's command channel reaches; a machine on another node stays
// host-side and still pauses the session at its state entry.
func TestClusterStateBreakOffRemoteNode(t *testing.T) {
	_, cl := startServer(t, Options{})
	for _, tc := range []struct {
		machine  string
		onTarget bool
	}{
		{"left.gate", true},
		{"right.gate", false},
	} {
		t.Run(tc.machine, func(t *testing.T) {
			created, err := cl.Create(CreateParams{Source: twoGateSrc, SourceName: "gates.gmdf"})
			if err != nil {
				t.Fatal(err)
			}
			if len(created.Nodes) != 2 {
				t.Fatalf("scenario built %v, want a two-node cluster", created.Nodes)
			}
			br, err := cl.Break(created.Session, BreakParams{ID: "g", Machine: tc.machine, State: "Open"})
			if err != nil {
				t.Fatal(err)
			}
			if br.OnTarget != tc.onTarget {
				t.Fatalf("onTarget = %v, want %v", br.OnTarget, tc.onTarget)
			}
			run, err := cl.RunFor(created.Session, 20)
			if err != nil {
				t.Fatal(err)
			}
			if !run.Paused || run.LastBreak != "g" {
				t.Fatalf("breakpoint on %s did not pause the session: %+v", tc.machine, run)
			}
		})
	}
}

// ringSrc is a three-node token ring on 100 kHz preemptive cores: every
// release overruns its 500 µs deadline.
const ringSrc = `system ring3

actor ring0 {
    on n0
    period 1ms
    deadline 500us
    network ringnet {
        in tin int
        out tout int
        machine node {
            in tin int
            out tout int
            initial Hold
            state Wait { tout = "-1" }
            state Hold { tout = "-1" }
            transition take: Wait -> Hold when "tin == 1"
            transition pass: Hold -> Wait when "true" { tout = "2" }
        }
        wire .tin -> node.tin
        wire node.tout -> .tout
    }
}

actor ring1 {
    on n1
    period 1ms
    deadline 500us
    network ringnet {
        in tin int
        out tout int
        machine node {
            in tin int
            out tout int
            initial Wait
            state Wait { tout = "-1" }
            state Hold { tout = "-1" }
            transition take: Wait -> Hold when "tin == 2"
            transition pass: Hold -> Wait when "true" { tout = "3" }
        }
        wire .tin -> node.tin
        wire node.tout -> .tout
    }
}

actor ring2 {
    on n2
    period 1ms
    deadline 500us
    network ringnet {
        in tin int
        out tout int
        machine node {
            in tin int
            out tout int
            initial Wait
            state Wait { tout = "-1" }
            state Hold { tout = "-1" }
            transition take: Wait -> Hold when "tin == 3"
            transition pass: Hold -> Wait when "true" { tout = "1" }
        }
        wire .tin -> node.tin
        wire node.tout -> .tout
    }
}

bind tok0: ring0.tout -> ring1.tin
bind tok1: ring1.tout -> ring2.tin
bind tok2: ring2.tout -> ring0.tin

board {
    cpu_hz 100000
    sched fixed_priority
}

run 20ms
`

// TestClusterMissBreakOffRemoteNode: over the wire, a deadline-miss
// breakpoint on a cluster arms on the target only for an actor on the node
// the session's command channel reaches; an actor on another node stays
// host-side and still pauses the session at its first miss.
func TestClusterMissBreakOffRemoteNode(t *testing.T) {
	_, cl := startServer(t, Options{})
	for _, tc := range []struct {
		actor    string
		onTarget bool
	}{
		{"ring0", true},
		{"ring1", false},
		{"ring2", false},
	} {
		t.Run(tc.actor, func(t *testing.T) {
			created, err := cl.Create(CreateParams{Source: ringSrc, SourceName: "ring3.gmdf"})
			if err != nil {
				t.Fatal(err)
			}
			if len(created.Nodes) != 3 {
				t.Fatalf("scenario built %v, want a three-node cluster", created.Nodes)
			}
			br, err := cl.Break(created.Session, BreakParams{ID: "m", MissActor: tc.actor})
			if err != nil {
				t.Fatal(err)
			}
			if br.OnTarget != tc.onTarget {
				t.Fatalf("onTarget = %v, want %v", br.OnTarget, tc.onTarget)
			}
			run, err := cl.RunFor(created.Session, 20)
			if err != nil {
				t.Fatal(err)
			}
			if !run.Paused || run.LastBreak != "m" {
				t.Fatalf("miss breakpoint on %s did not pause the session: %+v", tc.actor, run)
			}
		})
	}
}
