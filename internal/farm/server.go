package farm

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/dsl"
	"repro/internal/sched"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/models"
)

// DefaultMaxSessions bounds concurrently active sessions when Options
// leaves it zero.
const DefaultMaxSessions = 1024

// DefaultMaxSourceBytes bounds accepted scenario DSL source per create
// request when Options leaves it zero: the checker's resource limits cap
// what a scenario may build, this caps what the front end must even read.
const DefaultMaxSourceBytes = 256 << 10

// attachSampleCap bounds the retained attach-latency samples used for
// percentiles (the log2 bucket histogram is unbounded).
const attachSampleCap = 8192

// Options parameterises a Server.
type Options struct {
	// StoreDir backs the content-addressed checkpoint store; "" keeps
	// checkpoints in memory only (detach/resume then works within this
	// process, not across processes).
	StoreDir string
	// MaxSessions caps concurrently active sessions (DefaultMaxSessions
	// when zero).
	MaxSessions int
	// MaxSourceBytes caps the scenario DSL source a create request may
	// carry (DefaultMaxSourceBytes when zero, negative disables DSL
	// creates entirely).
	MaxSourceBytes int
	// Logf, when set, receives one line per connection and session
	// lifecycle event.
	Logf func(format string, v ...any)
	// Workers sizes the shared simulation worker pool (GOMAXPROCS when
	// <=0). Every CPU-heavy request — run-until, step, rewind — executes
	// on this pool, so total simulation parallelism stays bounded no
	// matter how many clients are connected, and work stealing rebalances
	// a session running seconds of virtual time against ones stepping a
	// millisecond at a time. The bound excludes cluster sessions created
	// with exec "parallel": each runs shards−1 goroutines of its own.
	Workers int
}

// Server multiplexes many isolated debug sessions behind the wire API.
// Each accepted connection gets a read goroutine; requests on one
// connection execute serially (responses stay ordered), sessions are
// isolated behind per-session locks, and any connection may address any
// session by id.
type Server struct {
	opts  Options
	store *Store
	pool  *sched.Pool

	pmu      sync.Mutex
	programs map[string]*codegen.Program

	mu       sync.Mutex
	lis      net.Listener
	conns    map[*conn]struct{}
	sessions map[string]*session
	nextID   uint64
	closed   bool

	st statsCounters
	wg sync.WaitGroup
}

type statsCounters struct {
	mu             sync.Mutex
	created        uint64
	resumed        uint64
	closedSessions uint64
	requests       uint64
	events         uint64
	incidents      uint64
	attach         []uint64 // latency samples, ns
	attachBuckets  [32]uint64
	attachMax      uint64
	attachCount    uint64
}

func (sc *statsCounters) recordAttach(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.attachCount++
	if len(sc.attach) < attachSampleCap {
		sc.attach = append(sc.attach, ns)
	}
	if ns > sc.attachMax {
		sc.attachMax = ns
	}
	// Bucket i counts attaches with latency < 2^i microseconds.
	us := ns / 1000
	b := bits.Len64(us)
	if b >= len(sc.attachBuckets) {
		b = len(sc.attachBuckets) - 1
	}
	sc.attachBuckets[b]++
}

// NewServer creates a farm server (not yet listening).
func NewServer(opts Options) (*Server, error) {
	store, err := NewStore(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.MaxSourceBytes == 0 {
		opts.MaxSourceBytes = DefaultMaxSourceBytes
	}
	return &Server{
		opts:     opts,
		store:    store,
		pool:     sched.NewPool(opts.Workers),
		programs: make(map[string]*codegen.Program),
		conns:    make(map[*conn]struct{}),
		sessions: make(map[string]*session),
	}, nil
}

// simDo hands one simulation advance to the shared worker pool and waits
// for it. The request goroutine keeps holding ss.mu (per-session
// isolation is unchanged); the closure runs on a pool worker and takes no
// locks, so there is no ordering between the two mutexes to deadlock on.
func (s *Server) simDo(fn func() error) error {
	var err error
	s.pool.Do(func(int) { err = fn() })
	return err
}

// Store exposes the server's checkpoint store (tests, tooling).
func (s *Server) Store() *Store { return s.store }

func (s *Server) logf(format string, v ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, v...)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Close. It retains lis so Close
// can unblock the accept loop.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("farm: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &conn{srv: s, nc: nc}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.readLoop()
	}
}

// Addr returns the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Close stops accepting, closes every connection and waits for handler
// goroutines. Active sessions are dropped without checkpointing — clients
// that want to resume later must detach with checkpoint first.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.wg.Wait()
	// All request goroutines have drained, so nothing submits to the pool
	// anymore and closing it cannot strand a blocked simDo.
	s.pool.Close()
	return nil
}

// conn is one accepted client connection. The write mutex keeps response
// and stream lines whole when another session's handler streams to us.
type conn struct {
	srv *Server
	nc  net.Conn
	wmu sync.Mutex
}

func (c *conn) writeJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err = c.nc.Write(b)
	return err
}

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		c.nc.Close()
		c.srv.dropConn(c)
	}()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 1 {
			var req Request
			if uerr := json.Unmarshal(line, &req); uerr != nil {
				_ = c.writeJSON(ServerMsg{Error: fmt.Sprintf("farm: malformed request: %v", uerr)})
			} else {
				result, herr := c.srv.dispatch(c, &req)
				resp := ServerMsg{ID: req.ID}
				if herr != nil {
					resp.Error = herr.Error()
				} else if result != nil {
					raw, merr := json.Marshal(result)
					if merr != nil {
						resp.Error = fmt.Sprintf("farm: marshal result: %v", merr)
					} else {
						resp.Result = raw
					}
				}
				if werr := c.writeJSON(resp); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// dropConn detaches a dead connection from the server and from any
// session sinks pointing at it. Sessions themselves persist — a client
// that reconnects can re-attach by session id.
func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	sessions := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	for _, ss := range sessions {
		ss.mu.Lock()
		if ss.sink == c {
			ss.sink = nil
		}
		ss.mu.Unlock()
	}
}

// dispatch executes one request. Server-scoped methods (create, stats)
// run here; session-scoped methods resolve the session, journal the
// request and run under the session lock.
func (s *Server) dispatch(c *conn, req *Request) (any, error) {
	s.st.mu.Lock()
	s.st.requests++
	s.st.mu.Unlock()

	switch req.Method {
	case "create":
		return s.handleCreate(req.Params)
	case "stats":
		return s.StatsSnapshot(), nil
	}

	if req.Session == "" {
		return nil, fmt.Errorf("farm: method %q needs a session", req.Method)
	}
	s.mu.Lock()
	ss, ok := s.sessions[req.Session]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("farm: no session %q", req.Session)
	}

	if req.Method == "detach" {
		return s.handleDetach(ss, req.Params)
	}

	start := time.Now()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, ss.errClosed()
	}
	if req.Method != "journal" {
		ss.journalReq(req.Method, req.Params)
	}

	switch req.Method {
	case "attach":
		ss.sink = c
		ss.streamed = ss.engineSession().Trace.Len()
		res := AttachResult{
			Model:   ss.model,
			NowNs:   ss.now(),
			Paused:  ss.engineSession().Paused(),
			Records: ss.streamed,
		}
		s.st.recordAttach(time.Since(start))
		return res, nil

	case "break":
		var p BreakParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return ss.setBreak(p)

	case "clearbreak":
		var p ClearBreakParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return nil, ss.engineSession().ClearBreakpoint(p.ID)

	case "run-until":
		var p RunParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		until := p.UntilNs
		if until == 0 {
			until = ss.now() + p.Ms*1_000_000
		}
		var err error
		if until > ss.now() {
			err = s.simDo(func() error { return ss.runNs(until - ss.now()) })
		}
		s.flushStream(ss)
		if err != nil {
			return nil, err
		}
		return s.runResult(ss), nil

	case "step":
		var p StepParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		err := s.simDo(func() error { return ss.step(p) })
		s.flushStream(ss)
		if err != nil {
			return nil, err
		}
		return s.runResult(ss), nil

	case "continue":
		ss.engineSession().Continue()
		return s.runResult(ss), nil

	case "pause":
		ss.engineSession().Pause()
		return s.runResult(ss), nil

	case "checkpoint":
		cp, err := ss.checkpoint()
		if err != nil {
			return nil, err
		}
		digest, n, err := s.store.Put(cp)
		if err != nil {
			return nil, err
		}
		return CheckpointResult{Digest: digest, TimeNs: cp.Time, Bytes: n}, nil

	case "rewind":
		var p RewindParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		toNs := p.ToNs
		if toNs == 0 {
			toNs = p.ToMs * 1_000_000
		}
		var landed uint64
		err := s.simDo(func() error {
			var rerr error
			landed, rerr = ss.engineSession().RewindTo(toNs)
			return rerr
		})
		s.flushStream(ss)
		if err != nil {
			return nil, err
		}
		return RewindResult{LandedNs: landed, Records: ss.engineSession().Trace.Len()}, nil

	case "trace":
		tr := ss.engineSession().Trace
		return TraceResult{Stable: tr.FormatStable(), Records: tr.Len()}, nil

	case "journal":
		entries := make([]JournalEntry, len(ss.journal))
		copy(entries, ss.journal)
		return JournalResult{Entries: entries}, nil
	}
	return nil, fmt.Errorf("farm: unknown method %q", req.Method)
}

func unmarshalParams(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("farm: bad params: %w", err)
	}
	return nil
}

func (s *Server) runResult(ss *session) RunResult {
	es := ss.engineSession()
	res := RunResult{
		NowNs:   ss.now(),
		Paused:  es.Paused(),
		Handled: es.Handled,
		Records: es.Trace.Len(),
	}
	if es.LastBreak != nil {
		res.LastBreak = es.LastBreak.ID
	}
	return res
}

// flushStream pushes trace records appended since the last flush to the
// attached connection — an "events" batch plus one "incident" message per
// incident record. Called with ss.mu held. With no sink attached the
// cursor still advances (history is available via attach + trace).
func (s *Server) flushStream(ss *session) {
	tr := ss.engineSession().Trace
	n := tr.Len()
	if ss.sink == nil {
		ss.streamed = n
		return
	}
	if n < ss.streamed {
		// A rewind truncated the trace; tell the client to refetch.
		ss.streamed = n
		_ = ss.sink.writeJSON(ServerMsg{Stream: "rewound", Session: ss.id})
		return
	}
	if n == ss.streamed {
		return
	}
	recs := make([]trace.Record, n-ss.streamed)
	copy(recs, tr.Records[ss.streamed:n])
	ss.streamed = n
	_ = ss.sink.writeJSON(ServerMsg{Stream: "events", Session: ss.id, Events: recs})
	var inc uint64
	for i := range recs {
		if incident(recs[i]) {
			r := recs[i]
			_ = ss.sink.writeJSON(ServerMsg{Stream: "incident", Session: ss.id, Event: &r})
			inc++
		}
	}
	s.st.mu.Lock()
	s.st.events += uint64(len(recs))
	s.st.incidents += inc
	s.st.mu.Unlock()
}

// programForSystem compiles a system once and shares the immutable
// program across every session with the same key — the built-in model
// name, or "dsl:"+source-digest for scenario sessions (identical source
// text compiles once no matter how many clients submit it).
func (s *Server) programForSystem(key string, sys *comdes.System) (*codegen.Program, error) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if p, ok := s.programs[key]; ok {
		return p, nil
	}
	p, err := repro.CompileFor(sys, repro.DebugConfig{Transport: repro.Active})
	if err != nil {
		return nil, err
	}
	s.programs[key] = p
	return p, nil
}

func (s *Server) handleCreate(raw json.RawMessage) (any, error) {
	var p CreateParams
	if err := unmarshalParams(raw, &p); err != nil {
		return nil, err
	}
	var (
		sys *comdes.System
		sc  *dsl.Scenario
	)
	model := p.Model
	if p.Source != "" {
		// DSL sessions gate on the same checker the CLI runs: a scenario
		// that would fail to build (or exceed the resource limits) is
		// rejected at the wire with rendered file:line:col diagnostics,
		// before any board exists.
		if s.opts.MaxSourceBytes < 0 {
			return nil, fmt.Errorf("farm: scenario source creates are disabled on this server")
		}
		if len(p.Source) > s.opts.MaxSourceBytes {
			return nil, fmt.Errorf("farm: scenario source is %d bytes, limit is %d", len(p.Source), s.opts.MaxSourceBytes)
		}
		name := p.SourceName
		if name == "" {
			name = "scenario.gmdf"
		}
		loaded, diags, err := dsl.LoadSource(name, p.Source)
		if err != nil {
			return nil, fmt.Errorf("farm: scenario rejected:\n%s", dsl.Render(name, p.Source, diags))
		}
		sc, sys = loaded, loaded.Sys
		sum := sha256.Sum256([]byte(p.Source))
		model = "dsl:" + hex.EncodeToString(sum[:6])
	} else {
		var err error
		sys, err = models.ByName(p.Model)
		if err != nil {
			return nil, err
		}
	}

	var cp *checkpoint.Checkpoint
	if p.Checkpoint != "" {
		var err error
		if cp, err = s.store.Get(p.Checkpoint); err != nil {
			return nil, err
		}
	}

	ss := &session{model: model, sys: sys}
	if len(sys.Nodes()) > 1 {
		exec := target.ExecAuto
		switch p.Exec {
		case "", "auto":
		case "serial":
			exec = target.ExecSerial
		case "parallel":
			exec = target.ExecParallel
		default:
			return nil, fmt.Errorf("farm: unknown exec mode %q (auto|serial|parallel)", p.Exec)
		}
		if cp != nil {
			exec = exec.ResumeMode(cp.Cluster)
		}
		ccfg := repro.StandardClusterConfig(sys.Nodes(), exec)
		var cenv func(now uint64, node string, b *target.Board)
		if sc != nil {
			ccfg = sc.ClusterConfig(exec)
			cenv = sc.ClusterEnvironment()
		}
		cdbg, err := repro.DebugCluster(sys, repro.ClusterDebugConfig{Cluster: ccfg, Environment: cenv})
		if err != nil {
			return nil, err
		}
		ss.cdbg = cdbg
	} else {
		prog, err := s.programForSystem(model, sys)
		if err != nil {
			return nil, err
		}
		cfg := repro.DebugConfig{
			Transport:   repro.Active,
			Environment: repro.StandardEnvironment(p.Model),
			Program:     prog,
		}
		if sc != nil {
			cfg.Environment = sc.Environment()
			cfg.Board = sc.BoardConfig()
		}
		dbg, err := repro.Debug(sys, cfg)
		if err != nil {
			return nil, err
		}
		ss.dbg = dbg
	}

	resumed := cp != nil
	if resumed {
		if err := ss.restore(cp); err != nil {
			return nil, err
		}
	}
	if p.RecordMs != 0 {
		// Enable after any restore, so the initial recorder checkpoint sits
		// at the resumed instant rather than t=0.
		interval := time.Duration(p.RecordMs) * time.Millisecond
		if ss.dbg != nil {
			if _, err := ss.dbg.EnableCheckpointing(interval); err != nil {
				return nil, err
			}
		} else if _, err := ss.cdbg.EnableCheckpointing(interval); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("farm: server closed")
	}
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		return nil, fmt.Errorf("farm: session limit reached (%d active)", s.opts.MaxSessions)
	}
	s.nextID++
	ss.id = fmt.Sprintf("s%06d", s.nextID)
	s.sessions[ss.id] = ss
	s.mu.Unlock()

	s.st.mu.Lock()
	if resumed {
		s.st.resumed++
	} else {
		s.st.created++
	}
	s.st.mu.Unlock()
	s.logf("farm: session %s created (model=%s resumed=%v)", ss.id, model, resumed)

	res := CreateResult{
		Session: ss.id,
		Model:   model,
		NowNs:   ss.now(),
		Records: ss.engineSession().Trace.Len(),
		Backend: ss.backend(),
	}
	if ss.cdbg != nil {
		res.Nodes = ss.cdbg.Cluster.Nodes()
	}
	return res, nil
}

func (s *Server) handleDetach(ss *session, raw json.RawMessage) (any, error) {
	var p DetachParams
	if err := unmarshalParams(raw, &p); err != nil {
		return nil, err
	}
	s.mu.Lock()
	delete(s.sessions, ss.id)
	s.mu.Unlock()

	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, ss.errClosed()
	}
	ss.journalReq("detach", raw)
	res := DetachResult{TimeNs: ss.now()}
	if p.Checkpoint {
		cp, err := ss.checkpoint()
		if err != nil {
			return nil, err
		}
		digest, _, err := s.store.Put(cp)
		if err != nil {
			return nil, err
		}
		res.Digest = digest
	}
	ss.closed = true
	ss.sink = nil
	s.st.mu.Lock()
	s.st.closedSessions++
	s.st.mu.Unlock()
	s.logf("farm: session %s detached (checkpoint=%v)", ss.id, p.Checkpoint)
	return res, nil
}

// StatsSnapshot assembles the current counters (wire "stats" method and
// the HTTP /stats endpoint).
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()
	s.pmu.Lock()
	cached := len(s.programs)
	s.pmu.Unlock()

	s.st.mu.Lock()
	st := Stats{
		ActiveSessions:  active,
		SessionsCreated: s.st.created,
		SessionsResumed: s.st.resumed,
		SessionsClosed:  s.st.closedSessions,
		Requests:        s.st.requests,
		EventsStreamed:  s.st.events,
		Incidents:       s.st.incidents,
		ProgramsCached:  cached,
		AttachCount:     s.st.attachCount,
		AttachMaxNs:     s.st.attachMax,
	}
	samples := make([]uint64, len(s.st.attach))
	copy(samples, s.st.attach)
	last := -1
	for i, b := range s.st.attachBuckets {
		if b != 0 {
			last = i
		}
	}
	if last >= 0 {
		st.AttachBuckets = append([]uint64(nil), s.st.attachBuckets[:last+1]...)
	}
	s.st.mu.Unlock()

	st.StoreEntries = s.store.Len()
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		st.AttachP50Ns = samples[len(samples)/2]
		st.AttachP99Ns = samples[(len(samples)*99)/100]
	}
	return st
}

// ServeHTTP serves the stats snapshot as JSON — mount it at /stats.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.StatsSnapshot())
}
