package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/bench/harness"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/dsl"
	"repro/internal/farm"
	"repro/internal/target"
	"repro/models"
)

// dslScenario is the committed scenario the DSL sessions submit.
const dslScenario = "examples/dsl/heating.gmdf"

// Script kinds, cycled in a seeded order.
const (
	kindHeating = iota // RecordMs + state breakpoint + rewind
	kindRing
	kindDist // cluster session, RecordMs + rewind
	kindDSL  // the heating scenario submitted as DSL source
	numKinds
)

var kindModel = [numKinds]string{"heating", "ring", "dist", ""}

var kindRecordMs = [numKinds]uint64{50, 0, 25, 0}

// farmCycle is the number of scripts in one client's plan cycle.
const farmCycle = 16

// script is one scripted debug session:
// create → attach → [break] → run-until → step → [clearbreak] → continue
// → run-until → [rewind] → trace → detach.
type script struct {
	key            string
	kind           int
	run1Ms, run2Ms uint64
	rewindPerMille uint64 // rewind target between the script's start and end
	keep           bool   // detach with a stored checkpoint
	resume         int    // index of the script whose checkpoint this one resumes, -1 none
}

func farmPlan(b *bench, client int) []script {
	r := newRNG(b.cfg.seed, fmt.Sprintf("farm_debug/client%d", client))
	order := r.perm(numKinds)
	// Each kind runs farmCycle/numKinds times per cycle, with its run
	// lengths (50-301 virtual ms) and rewind points drawn from strata.
	per := farmCycle / numKinds
	var run1, run2, rewind [numKinds][]uint64
	for k := range numKinds {
		run1[k], run2[k], rewind[k] = r.strata(per, 50, 302), r.strata(per, 50, 302), r.strata(per, 0, 1000)
	}
	plan := make([]script, farmCycle)
	for i := range plan {
		k, j := order[i%numKinds], i/numKinds
		plan[i] = script{
			key:            fmt.Sprintf("c%d/%d", client, i),
			kind:           k,
			run1Ms:         b.scaledMs(run1[k][j]),
			run2Ms:         b.scaledMs(run2[k][j]),
			rewindPerMille: rewind[k][j],
			keep:           i%8 == 5,
			resume:         -1,
		}
		// One in eight detaches keeps a checkpoint; the script four places
		// later runs the same kind and resumes from it.
		if i%8 == 1 && i >= 8 {
			plan[i].resume = i - 4
		}
	}
	return plan
}

// debugTarget is one side of a script: the farm over the wire, or the
// in-process shadow that replays it through the repro facade.
type debugTarget interface {
	create(s *script, resume string) (nowNs uint64, err error)
	attach() error
	breakOn() error
	clearBreak() error
	run(ms uint64) (nowNs uint64, err error)
	step() (nowNs uint64, err error)
	cont() error
	rewind(toNs uint64) error
	trace() (string, error)
	detach(keep bool) (digest string, err error)
}

// farmMethods are the request kinds, in the order a script issues them.
var farmMethods = []string{"create", "attach", "break", "run_until", "step", "clearbreak", "continue", "rewind", "trace", "detach"}

// scriptOut is what one script produced.
type scriptOut struct {
	digest string // stable trace + kept checkpoint
	kept   string // checkpoint digest, "" when not kept
	vns    uint64 // virtual time advanced forward
}

// timed records the duration of every call a script makes.
type timed struct {
	tr      *harness.Tracer
	m       *meter // measured phase, nil outside it
	prefix  string
	samples map[string][]float64 // method -> µs
}

// do times one request; vns is the virtual time the script has advanced,
// which the request may add to.
func (t *timed) do(method string, fn func() error, vns *uint64) error {
	t.tr.Begin(t.prefix + method)
	before := *vns
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.samples[method] = append(t.samples[method], float64(d.Nanoseconds())/1e3)
	if t.m != nil {
		t.m.op(d, *vns-before)
	}
	t.tr.End()
	if err != nil {
		return fmt.Errorf("%s: %w", method, err)
	}
	return nil
}

// playScript runs one script against a target.
func playScript(t debugTarget, s *script, resume string, tm *timed) (scriptOut, error) {
	var out scriptOut
	var start, now uint64
	var stable string
	advance := func(to uint64) {
		if to > now {
			out.vns += to - now
		}
		now = to
	}
	steps := []struct {
		method string
		skip   bool
		fn     func() error
	}{
		{"create", false, func() (err error) { start, err = t.create(s, resume); now = start; return }},
		{"attach", false, t.attach},
		{"break", s.kind != kindHeating, t.breakOn},
		{"run_until", false, func() error { n, err := t.run(s.run1Ms); advance(n); return err }},
		{"step", false, func() error { n, err := t.step(); advance(n); return err }},
		{"clearbreak", s.kind != kindHeating, t.clearBreak},
		{"continue", false, t.cont},
		{"run_until", false, func() error { n, err := t.run(s.run2Ms); advance(n); return err }},
		{"rewind", kindRecordMs[s.kind] == 0, func() error {
			to := start + (now-start)/1_000_000*s.rewindPerMille/1000*1_000_000
			now = to
			return t.rewind(to)
		}},
		{"trace", false, func() (err error) { stable, err = t.trace(); return }},
		{"detach", false, func() (err error) { out.kept, err = t.detach(s.keep); return }},
	}
	for _, st := range steps {
		if st.skip {
			continue
		}
		if err := tm.do(st.method, st.fn, &out.vns); err != nil {
			return out, err
		}
	}
	out.digest = digestString(stable + "\nkept=" + out.kept)
	return out, nil
}

// remote drives a script over the wire.
type remote struct {
	c   *farm.Client
	src string
	sid string
}

func (r *remote) create(s *script, resume string) (uint64, error) {
	p := farm.CreateParams{Model: kindModel[s.kind], RecordMs: kindRecordMs[s.kind], Checkpoint: resume}
	if s.kind == kindDSL {
		p.Source, p.SourceName = r.src, "heating.gmdf"
	}
	res, err := r.c.Create(p)
	r.sid = res.Session
	return res.NowNs, err
}

func (r *remote) attach() error { _, err := r.c.Attach(r.sid); return err }

func (r *remote) breakOn() error {
	_, err := r.c.Break(r.sid, farm.BreakParams{ID: "b", Machine: "heater.thermostat", State: "Heating"})
	return err
}

func (r *remote) clearBreak() error { return r.c.ClearBreak(r.sid, "b") }

func (r *remote) run(ms uint64) (uint64, error) {
	res, err := r.c.RunFor(r.sid, ms)
	return res.NowNs, err
}

func (r *remote) step() (uint64, error) {
	res, err := r.c.Step(r.sid, farm.StepParams{})
	return res.NowNs, err
}

func (r *remote) cont() error { _, err := r.c.Continue(r.sid); return err }

func (r *remote) rewind(to uint64) error {
	res, err := r.c.Rewind(r.sid, to)
	if err == nil && res.LandedNs != to {
		err = fmt.Errorf("landed at %d, want %d", res.LandedNs, to)
	}
	return err
}

func (r *remote) trace() (string, error) {
	res, err := r.c.TraceStable(r.sid)
	return res.Stable, err
}

func (r *remote) detach(keep bool) (string, error) {
	res, err := r.c.Detach(r.sid, keep)
	return res.Digest, err
}

// shadow replays a script in process through the repro facade, doing
// exactly what the farm server does for each request.
type shadow struct {
	src   string
	progs map[string]*codegen.Program
	store map[string][]byte
	f     *facade
}

func newShadow(src string) *shadow {
	return &shadow{src: src, progs: map[string]*codegen.Program{}, store: map[string][]byte{}}
}

func (s *shadow) create(sc *script, resume string) (uint64, error) {
	s.f = &facade{}
	var err error
	switch sc.kind {
	case kindDist:
		sys, err := models.ByName("dist")
		if err != nil {
			return 0, err
		}
		s.f.cdbg, err = repro.DebugCluster(sys, repro.ClusterDebugConfig{Cluster: repro.StandardClusterConfig(sys.Nodes(), target.ExecAuto)})
		if err != nil {
			return 0, err
		}
	case kindDSL:
		loaded, diags, err := dsl.LoadSource("heating.gmdf", s.src)
		if err != nil {
			return 0, fmt.Errorf("%v: %v", err, diags)
		}
		cfg := repro.DebugConfig{Transport: repro.Active, Environment: loaded.Environment(), Board: loaded.BoardConfig()}
		if cfg.Program, err = s.program("dsl", loaded.Sys); err != nil {
			return 0, err
		}
		if s.f.dbg, err = repro.Debug(loaded.Sys, cfg); err != nil {
			return 0, err
		}
	default:
		name := kindModel[sc.kind]
		sys, err := models.ByName(name)
		if err != nil {
			return 0, err
		}
		cfg := repro.DebugConfig{Transport: repro.Active, Environment: repro.StandardEnvironment(name)}
		if cfg.Program, err = s.program(name, sys); err != nil {
			return 0, err
		}
		if s.f.dbg, err = repro.Debug(sys, cfg); err != nil {
			return 0, err
		}
	}
	if resume != "" {
		cp, err := checkpoint.Decode(bytes.NewReader(s.store[resume]))
		if err != nil {
			return 0, err
		}
		if err := s.f.restore(cp); err != nil {
			return 0, err
		}
	}
	if ms := kindRecordMs[sc.kind]; ms != 0 {
		err = s.f.enableCheckpointing(time.Duration(ms) * time.Millisecond)
	}
	return s.f.now(), err
}

// program compiles a system once per key, as the farm's program cache
// does.
func (s *shadow) program(key string, sys *comdes.System) (*codegen.Program, error) {
	if p, ok := s.progs[key]; ok {
		return p, nil
	}
	p, err := repro.CompileFor(sys, repro.DebugConfig{Transport: repro.Active})
	s.progs[key] = p
	return p, err
}

func (s *shadow) attach() error { return nil }

func (s *shadow) breakOn() error { return s.f.dbg.BreakOnState("b", "heater.thermostat", "Heating") }

func (s *shadow) clearBreak() error { return s.f.session().ClearBreakpoint("b") }

func (s *shadow) run(ms uint64) (uint64, error) {
	err := s.f.runNs(ms * 1_000_000)
	return s.f.now(), err
}

// step is the farm's host-side step: resume until the next model event,
// waiting at most one virtual second (Debugger.StepEvent for a board).
func (s *shadow) step() (uint64, error) {
	s.f.session().Step()
	err := s.f.runNs(1_000_000_000)
	return s.f.now(), err
}

func (s *shadow) cont() error {
	s.f.session().Continue()
	return nil
}

func (s *shadow) rewind(to uint64) error {
	landed, err := s.f.session().RewindTo(to)
	if err == nil && landed != to {
		err = fmt.Errorf("landed at %d, want %d", landed, to)
	}
	return err
}

func (s *shadow) trace() (string, error) { return s.f.session().Trace.FormatStable(), nil }

func (s *shadow) detach(keep bool) (string, error) {
	if !keep {
		return "", nil
	}
	cp, err := s.f.checkpoint()
	if err != nil {
		return "", err
	}
	raw, err := cp.Marshal()
	if err != nil {
		return "", err
	}
	d := checkpoint.DigestBytes(raw)
	s.store[d] = raw
	return d, nil
}

// server is a gmdfd child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// spawnServer starts gmdfd on a free loopback port with a fresh store
// directory and waits for its listening line.
func (b *bench) spawnServer() (*server, error) {
	store, err := os.MkdirTemp(b.tmpDir(), "store")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.cfg.gmdfd, "-listen", "127.0.0.1:0", "-store", store)
	cmd.Stderr = os.Stderr
	// stop ends the server on every normal path; this also ends it if the
	// benchmark itself dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gmdfd (build it with bench/run.sh): %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	if a, ok := strings.CutPrefix(strings.TrimSpace(line), "gmdfd listening on "); ok && err == nil {
		s.addr = a
	}
	go func() {
		io.Copy(io.Discard, br)
		s.done <- cmd.Wait()
	}()
	if s.addr == "" {
		s.stop()
		return nil, fmt.Errorf("gmdfd did not report its address (%q, %v)", line, err)
	}
	return s, nil
}

// stop shuts the server down and waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// cpu reads the server's user+system CPU time from procfs.
func (s *server) cpu() (time.Duration, error) {
	return procCPU("/proc/" + s.pid() + "/stat")
}

func procCPU(path string) (time.Duration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 per second).
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("parse %s", path)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse %s", path)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// counted counts the bytes a client connection carries.
type counted struct {
	net.Conn
	in, out int64
}

func (c *counted) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *counted) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

// farmClient is one closed-loop load generator connection.
type farmClient struct {
	id   int
	plan []script
	conn *counted
	c    *farm.Client
	tm   timed

	// next is the plan index of the client's next script, and kept the
	// checkpoint digests its current plan cycle has stored so far.
	next   int
	cycles int // plan cycles completed
	kept   map[int]string

	outs map[string]scriptOut // first output of each script key
	errs []error
	bad  []string // repeat mismatches
}

func (b *bench) dialClients(s *server, n int) ([]*farmClient, error) {
	var cs []*farmClient
	for i := range n {
		nc, err := net.Dial("tcp", s.addr)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		conn := &counted{Conn: nc}
		cs = append(cs, &farmClient{
			id: i, plan: farmPlan(b, i), conn: conn, c: farm.NewClient(conn),
			tm:   timed{prefix: "farm.rtt.", samples: map[string][]float64{}},
			kept: map[int]string{}, outs: map[string]scriptOut{},
		})
	}
	return cs, nil
}

func closeClients(cs []*farmClient) {
	for _, fc := range cs {
		fc.c.Close()
	}
}

// play runs the client's next script and moves on to the one after it;
// a failed script is recorded and reported as false. Every script's
// output must equal its first run's.
func (fc *farmClient) play(src string, tr *harness.Tracer) bool {
	if fc.next == 0 && fc.tm.m != nil {
		fc.tm.m.cycle()
	}
	s := &fc.plan[fc.next]
	resume := ""
	if s.resume >= 0 {
		resume = fc.kept[s.resume]
	}
	fc.tm.tr = tr
	tr.SetGroup(s.key)
	tr.Begin("farm.script")
	out, err := playScript(&remote{c: fc.c, src: src}, s, resume, &fc.tm)
	tr.End()
	if err != nil {
		fc.errs = append(fc.errs, fmt.Errorf("%s: %w", s.key, err))
		return false
	}
	fc.kept[fc.next] = out.kept
	if first, ok := fc.outs[s.key]; !ok {
		fc.outs[s.key] = out
	} else if first.digest != out.digest {
		fc.bad = append(fc.bad, s.key)
	}
	if fc.next++; fc.next == len(fc.plan) {
		fc.next, fc.cycles = 0, fc.cycles+1
		clear(fc.kept)
	}
	return true
}

// pass plays scripts until deadline, going on where the client's last
// pass stopped; the first plan cycle always completes.
func (fc *farmClient) pass(src string, deadline time.Time) {
	for fc.cycles == 0 || time.Now().Before(deadline) {
		if !fc.play(src, nil) {
			return
		}
	}
}

// cycle plays the rest of the current plan cycle: from a cycle's start,
// one whole cycle.
func (fc *farmClient) cycle(src string, tr *harness.Tracer) {
	for {
		if !fc.play(src, tr) || fc.next == 0 {
			return
		}
	}
}

// runClients runs fn on every client concurrently, each with its fork of
// tr, and waits for all.
func runClients(cs []*farmClient, tr *harness.Tracer, fn func(*farmClient, *harness.Tracer)) {
	var wg sync.WaitGroup
	forks := make([]*harness.Tracer, len(cs))
	for i, fc := range cs {
		forks[i] = tr.Fork(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(fc, forks[i])
		}()
	}
	wg.Wait()
	for _, f := range forks {
		tr.Absorb(f)
	}
}

// startFarm spawns a gmdfd, connects n clients and waits for the server's
// first stats reply.
func (b *bench) startFarm(n int) (*server, []*farmClient, error) {
	srv, err := b.spawnServer()
	if err != nil {
		return nil, nil, err
	}
	clients, err := b.dialClients(srv, n)
	if err == nil {
		_, err = clients[0].c.Stats()
	}
	if err != nil {
		closeClients(clients)
		srv.stop()
		return nil, nil, err
	}
	return srv, clients, nil
}

// farmDebug: nproc closed-loop connections to a gmdfd child process
// running seeded debug scripts over four session kinds.
func farmDebug(b *bench) error {
	src, err := os.ReadFile(filepath.Join(b.cfg.root, dslScenario))
	if err != nil {
		return err
	}
	nclients := runtime.NumCPU()
	var srv *server
	var clients []*farmClient
	defer func() {
		closeClients(clients)
		if srv != nil {
			srv.stop()
		}
	}()
	// A later set-up starts a second farm while the first one idles
	// between segments of the measured phase, and stops it untimed.
	err = b.setup(func() (func(), error) {
		s, cs, err := b.startFarm(nclients)
		switch {
		case err != nil:
			return nil, err
		case srv == nil:
			srv, clients = s, cs
			return nil, nil
		}
		return func() { closeClients(cs); s.stop() }, nil
	})
	if err != nil {
		return err
	}
	if b.cfg.trace {
		return b.traceFarm(srv, clients, string(src))
	}

	// The clients run in segments with a set-up between them.
	meters := make([]*meter, len(clients))
	for i, fc := range clients {
		meters[i] = newMeter()
		fc.tm.m = meters[i]
	}
	deadline := b.deadlineAfter(1)
	failed := func(fc *farmClient) bool { return len(fc.errs) > 0 }
	for {
		end := time.Now().Add(b.setupEvery())
		if end.After(deadline) {
			end = deadline
		}
		runClients(clients, nil, func(fc *farmClient, _ *harness.Tracer) { fc.pass(string(src), end) })
		if !time.Now().Before(deadline) || slices.ContainsFunc(clients, failed) {
			break
		}
		if err := b.timeSetup(); err != nil {
			return err
		}
	}
	for _, fc := range clients {
		fc.tm.m = nil
	}
	report(b, meters...)
	mb, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", mb, "MB")
	return b.farmOutputs(clients, string(src))
}

// farmOutputs accounts every request, records each script's output, and
// replays each distinct script in process to check it against.
func (b *bench) farmOutputs(clients []*farmClient, src string) error {
	for _, fc := range clients {
		for _, m := range farmMethods {
			b.res.Attempted += int64(len(fc.tm.samples[m]))
		}
		// The sim_digest covers client 0, which exists whatever nproc is;
		// every client's outputs are checked against the shadow.
		for i := range fc.plan {
			if out, ok := fc.outs[fc.plan[i].key]; ok {
				b.output(fc.plan[i].key, fc.id == 0, out.digest)
			}
		}
	}
	outs, err := b.shadowReplay(clients, src, nil)
	if err != nil {
		return err
	}
	b.checkClients(clients, outs)
	return nil
}

// checkClients accounts the clients' failed scripts and repeat
// mismatches, and requires every remote script output to equal its
// in-process shadow's (remote = shadow).
func (b *bench) checkClients(clients []*farmClient, shadow map[string]scriptOut) {
	for _, fc := range clients {
		for _, err := range fc.errs {
			b.attempt(err)
		}
		for _, key := range fc.bad {
			b.res.Failed++
			b.problem("%s: output differs from the script's first run", key)
		}
		for key, out := range fc.outs {
			b.same("remote = shadow "+key, out.digest, shadow[key].digest)
		}
	}
}

// shadowReplay runs each client's first plan cycle in process.
func (b *bench) shadowReplay(clients []*farmClient, src string, tm *timed) (map[string]scriptOut, error) {
	outs := map[string]scriptOut{}
	if tm == nil {
		tm = &timed{samples: map[string][]float64{}}
	}
	for _, fc := range clients {
		sh := newShadow(src)
		kept := map[int]string{}
		for i := range fc.plan {
			s := &fc.plan[i]
			resume := ""
			if s.resume >= 0 {
				resume = kept[s.resume]
			}
			b.tr.SetGroup("shadow/" + s.key)
			b.tr.Begin("farm.shadow_script")
			out, err := playScript(sh, s, resume, tm)
			b.tr.End()
			if err != nil {
				return nil, fmt.Errorf("shadow %s: %w", s.key, err)
			}
			kept[i] = out.kept
			outs[s.key] = out
		}
	}
	return outs, nil
}
