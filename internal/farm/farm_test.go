package farm

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/dsl"
	"repro/internal/trace"
	"repro/models"
)

// startServer brings up a farm server on a loopback port and returns a
// connected client. Cleanup closes both.
func startServer(t testing.TB, opts Options) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	seedAddr = lis.Addr().String()
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// inProcessTrace drives the same model in-process for ms virtual
// milliseconds and returns the stable trace — the reference the
// remote-driven session must reproduce byte-for-byte. It builds the
// session through the same recipe every front end uses, the scenario
// the model already is.
func inProcessTrace(t testing.TB, model string, ms uint64) string {
	t.Helper()
	sys, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := dsl.FromSystem(sys).Debug(repro.Active, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.RunNs(ms * 1_000_000); err != nil {
		t.Fatal(err)
	}
	return dbg.Session.Trace.FormatStable()
}

// TestRemoteTraceMatchesInProcess: a session driven entirely over the
// wire produces the exact trace bytes an in-process debugger produces for
// the same model and budget — the farm adds multiplexing, not noise.
func TestRemoteTraceMatchesInProcess(t *testing.T) {
	for _, model := range []string{"heating", "ring", "priorityload"} {
		t.Run(model, func(t *testing.T) {
			_, cl := startServer(t, Options{})
			created, err := cl.Create(CreateParams{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Attach(created.Session); err != nil {
				t.Fatal(err)
			}
			run, err := cl.RunFor(created.Session, 300)
			if err != nil {
				t.Fatal(err)
			}
			if run.NowNs != 300_000_000 {
				t.Fatalf("remote run ended at %d ns", run.NowNs)
			}
			remote, err := cl.TraceStable(created.Session)
			if err != nil {
				t.Fatal(err)
			}
			if want := inProcessTrace(t, model, 300); remote.Stable != want {
				t.Fatalf("remote trace differs from in-process trace\nremote:\n%s\nin-process:\n%s", remote.Stable, want)
			}
		})
	}
}

// TestSharedProgramAcrossSessions: the compiled program is cached once
// per model no matter how many sessions run it.
func TestSharedProgramAcrossSessions(t *testing.T) {
	srv, cl := startServer(t, Options{})
	for i := 0; i < 4; i++ {
		created, err := cl.Create(CreateParams{Model: "ring"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.RunFor(created.Session, 20); err != nil {
			t.Fatal(err)
		}
	}
	srv.pmu.Lock()
	cached := len(srv.programs)
	progRing := srv.programs["ring"]
	srv.pmu.Unlock()
	if cached != 1 || progRing == nil {
		t.Fatalf("program cache has %d entries, want exactly the ring program", cached)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ProgramsCached != 1 || st.SessionsCreated != 4 || st.ActiveSessions != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWireBreakpointFlow: set -> hit -> step -> clear -> continue over
// the wire, with events streaming to the attached connection; and the
// validate-before-arm contract surfaces wire-side (a bad Cond fails the
// request and a following run halts nowhere).
func TestWireBreakpointFlow(t *testing.T) {
	_, cl := startServer(t, Options{})
	var streamed []trace.Record
	var incidents []trace.Record
	cl.OnEvents = func(sess string, evs []trace.Record) { streamed = append(streamed, evs...) }
	cl.OnIncident = func(sess string, ev trace.Record) { incidents = append(incidents, ev) }

	created, err := cl.Create(CreateParams{Model: "heating"})
	if err != nil {
		t.Fatal(err)
	}
	sid := created.Session
	if _, err := cl.Attach(sid); err != nil {
		t.Fatal(err)
	}

	// A malformed host condition must be rejected without leaving an armed
	// condition on the target (the SetBreakpoint lifecycle fix, observed
	// through the wire API).
	if _, err := cl.Break(sid, BreakParams{ID: "bad", Machine: "heater.thermostat", State: "Heating", Cond: "value >"}); err == nil {
		t.Fatal("break with unparsable cond was accepted")
	}
	run, err := cl.RunFor(sid, 50)
	if err != nil {
		t.Fatal(err)
	}
	if run.Paused {
		t.Fatal("session halted on a breakpoint whose install failed")
	}

	br, err := cl.Break(sid, BreakParams{ID: "wb", Machine: "heater.thermostat", State: "Heating"})
	if err != nil {
		t.Fatal(err)
	}
	if !br.OnTarget {
		t.Fatal("state breakpoint did not arm on the target over the active interface")
	}
	run, err = cl.RunFor(sid, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Paused || run.LastBreak != "wb" {
		t.Fatalf("breakpoint did not pause the session: %+v", run)
	}
	hitAt := run.NowNs
	if run.NowNs >= 2_050_000_000 {
		t.Fatalf("halt did not happen mid-budget: %d", run.NowNs)
	}
	if len(incidents) == 0 {
		t.Fatal("EvBreak incident was not streamed")
	}

	// Disarm before stepping: a still-true armed condition re-trips the
	// instant the board resumes (by design), which would win over the step.
	if err := cl.ClearBreak(sid, "wb"); err != nil {
		t.Fatal(err)
	}
	step, err := cl.Step(sid, StepParams{Target: true})
	if err != nil {
		t.Fatal(err)
	}
	if !step.Paused || step.LastBreak != "" {
		t.Fatalf("on-target step did not halt at the next model event: %+v", step)
	}
	if _, err := cl.Continue(sid); err != nil {
		t.Fatal(err)
	}
	run, err = cl.RunUntil(sid, 2_050_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if run.Paused || run.NowNs != 2_050_000_000 {
		t.Fatalf("run after clear did not complete: %+v", run)
	}
	if uint64(len(streamed)) == 0 || run.Records != len(streamed)+int(createdRecords(created)) {
		t.Fatalf("streamed %d records, trace has %d", len(streamed), run.Records)
	}

	// The journal carries every control request with virtual-time stamps.
	j, err := cl.Journal(sid)
	if err != nil {
		t.Fatal(err)
	}
	var methods []string
	for _, e := range j.Entries {
		methods = append(methods, e.Method)
	}
	joined := strings.Join(methods, ",")
	for _, want := range []string{"attach", "break", "run-until", "step", "clearbreak", "continue"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("journal %v missing %q", methods, want)
		}
	}
	for _, e := range j.Entries {
		if e.Method == "step" && e.VTNs != hitAt {
			t.Fatalf("step journaled at vt=%d, want the halt instant %d", e.VTNs, hitAt)
		}
	}
}

func createdRecords(c CreateResult) uint64 { return uint64(c.Records) }

// TestDetachResumeAcrossServers: checkpoint on one server, resume on a
// second server sharing the same store directory (the two-process farm
// shape), and the resumed session's continuation reproduces an
// uninterrupted run byte-for-byte.
func TestDetachResumeAcrossServers(t *testing.T) {
	dir := t.TempDir()

	// Reference: one uninterrupted remote session, 600 ms.
	_, ref := startServer(t, Options{StoreDir: dir})
	created, err := ref.Create(CreateParams{Model: "heating"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunFor(created.Session, 600); err != nil {
		t.Fatal(err)
	}
	full, err := ref.TraceStable(created.Session)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: 300 ms on server A, detach with checkpoint.
	srvA, clA := startServer(t, Options{StoreDir: dir})
	ca, err := clA.Create(CreateParams{Model: "heating"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clA.RunFor(ca.Session, 300); err != nil {
		t.Fatal(err)
	}
	det, err := clA.Detach(ca.Session, true)
	if err != nil {
		t.Fatal(err)
	}
	if det.Digest == "" {
		t.Fatal("detach returned no digest")
	}
	if st := srvA.StatsSnapshot(); st.ActiveSessions != 0 || st.SessionsClosed != 1 {
		t.Fatalf("server A stats after detach: %+v", st)
	}
	// The detached session is gone.
	if _, err := clA.RunFor(ca.Session, 1); err == nil {
		t.Fatal("detached session still accepts requests")
	}
	srvA.Close()

	// Fresh server over the same store: resume by digest, run the rest.
	_, clB := startServer(t, Options{StoreDir: dir})
	cb, err := clB.Create(CreateParams{Model: "heating", Checkpoint: det.Digest})
	if err != nil {
		t.Fatal(err)
	}
	if cb.NowNs != 300_000_000 || cb.Records == 0 {
		t.Fatalf("resume landed at %d ns with %d records", cb.NowNs, cb.Records)
	}
	if _, err := clB.RunFor(cb.Session, 300); err != nil {
		t.Fatal(err)
	}
	resumed, err := clB.TraceStable(cb.Session)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stable != full.Stable {
		t.Fatal("resumed-in-fresh-server trace differs from the uninterrupted run")
	}
}

// TestRewindOverWire: a recorded session rewinds to an earlier instant
// and the attached connection is told its view of the trace is stale.
func TestRewindOverWire(t *testing.T) {
	_, cl := startServer(t, Options{})
	rewound := false
	cl.OnRewound = func(sess string) { rewound = true }

	created, err := cl.Create(CreateParams{Model: "heating", RecordMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	sid := created.Session
	if _, err := cl.Attach(sid); err != nil {
		t.Fatal(err)
	}
	run, err := cl.RunFor(sid, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Rewind(sid, 250_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.LandedNs != 250_000_000 {
		t.Fatalf("rewind landed at %d", res.LandedNs)
	}
	if res.Records >= run.Records {
		t.Fatalf("rewind did not truncate the trace (%d -> %d)", run.Records, res.Records)
	}
	if !rewound {
		t.Fatal("no rewound stream message reached the attached client")
	}
	// Replay forward: the re-executed window reproduces the original.
	full, err := cl.RunUntil(sid, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if full.Records != run.Records {
		t.Fatalf("replayed trace has %d records, original had %d", full.Records, run.Records)
	}
}

// TestClusterRewindOverWire: a recorded TDMA cluster session rewinds to
// an earlier instant and replaying forward reproduces the distributed
// trace byte-for-byte — the wire-level half of cluster repro-shrinking.
// Workers pins a small simulation bound so the test also covers a rewind
// run under it.
func TestClusterRewindOverWire(t *testing.T) {
	_, cl := startServer(t, Options{Workers: 2})
	created, err := cl.Create(CreateParams{Model: "dist", RecordMs: 25})
	if err != nil {
		t.Fatal(err)
	}
	sid := created.Session
	run, err := cl.RunFor(sid, 120)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cl.TraceStable(sid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Rewind(sid, 60_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.LandedNs != 60_000_000 {
		t.Fatalf("cluster rewind landed at %d", res.LandedNs)
	}
	if res.Records >= run.Records {
		t.Fatalf("rewind did not truncate the trace (%d -> %d)", run.Records, res.Records)
	}
	replayed, err := cl.RunUntil(sid, 120_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Records != run.Records {
		t.Fatalf("replayed trace has %d records, original had %d", replayed.Records, run.Records)
	}
	again, err := cl.TraceStable(sid)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stable != full.Stable {
		t.Fatal("replayed distributed trace differs from the original run")
	}
}

// TestClusterSession: a placed multi-node model debugs as a TDMA cluster
// session whose remote trace matches the in-process cluster run.
func TestClusterSession(t *testing.T) {
	_, cl := startServer(t, Options{})
	created, err := cl.Create(CreateParams{Model: "dist"})
	if err != nil {
		t.Fatal(err)
	}
	if len(created.Nodes) < 2 {
		t.Fatalf("cluster session has nodes %v", created.Nodes)
	}
	if _, err := cl.RunFor(created.Session, 100); err != nil {
		t.Fatal(err)
	}
	remote, err := cl.TraceStable(created.Session)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := models.ByName("dist")
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := repro.DebugCluster(sys, repro.ClusterDebugConfig{
		Cluster: repro.StandardClusterConfig(sys.Nodes(), 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.RunNs(100_000_000); err != nil {
		t.Fatal(err)
	}
	if want := dbg.Session.Trace.FormatStable(); remote.Stable != want {
		t.Fatal("remote cluster trace differs from in-process cluster run")
	}
}

// TestStoreIntegrity: fetching a corrupted store entry fails loudly.
func TestStoreIntegrity(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("not-a-digest"); err == nil {
		t.Fatal("malformed digest accepted")
	}
	_, cl := startServer(t, Options{})
	created, err := cl.Create(CreateParams{Model: "ring"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunFor(created.Session, 10); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Checkpoint(created.Session)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes <= 0 || len(res.Digest) != 64 {
		t.Fatalf("checkpoint result %+v", res)
	}
	// Checkpointing the same state again deduplicates to the same address.
	res2, err := cl.Checkpoint(created.Session)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != res.Digest {
		t.Fatal("same state stored under two addresses")
	}
}

// TestCreateRefusesParallelCheckpoint: a create resuming a checkpoint
// written by the removed parallel cluster executor gets a wire error
// naming it, not a silent mis-restore. The server keeps serving: a
// control session on another connection, driven across the refusal,
// ends with the trace of an uninterrupted run, and a fresh create works.
func TestCreateRefusesParallelCheckpoint(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy_parallel_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	digest := checkpoint.DigestBytes(raw)
	if err := os.WriteFile(filepath.Join(dir, digest+".cp"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, Options{StoreDir: dir})
	ctl, err := Dial(seedAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	ref, err := ctl.Create(CreateParams{Model: "dist"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RunFor(ref.Session, 60); err != nil {
		t.Fatal(err)
	}
	want, err := ctl.TraceStable(ref.Session)
	if err != nil {
		t.Fatal(err)
	}
	control, err := ctl.Create(CreateParams{Model: "dist"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RunFor(control.Session, 30); err != nil {
		t.Fatal(err)
	}

	_, err = cl.Create(CreateParams{Model: "dist", Checkpoint: digest})
	if err == nil || !strings.Contains(err.Error(), "removed parallel cluster executor") {
		t.Fatalf("create from a parallel checkpoint: %v", err)
	}

	if _, err := ctl.RunFor(control.Session, 30); err != nil {
		t.Fatal(err)
	}
	got, err := ctl.TraceStable(control.Session)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stable != want.Stable {
		t.Fatal("control session's trace changed across the refused create")
	}
	if _, err := cl.Create(CreateParams{Model: "dist"}); err != nil {
		t.Fatalf("create after the refusal: %v", err)
	}
}
