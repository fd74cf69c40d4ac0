package farm

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/dsl"
	"repro/models"
)

// DefaultMaxSessions bounds concurrently active sessions when Options
// leaves it zero.
const DefaultMaxSessions = 1024

// DefaultMaxSourceBytes bounds accepted scenario DSL source per create
// request when Options leaves it zero: the checker's resource limits cap
// what a scenario may build, this caps what the front end must even read.
const DefaultMaxSourceBytes = 256 << 10

// requestEnvelopeBytes is the part of the request line bound that does not
// scale with the scenario source: method, id, session, the other create
// parameters and the JSON framing around them.
const requestEnvelopeBytes = 64 << 10

// maxRequestBytes bounds one request line. The only request field of
// unbounded size is a create's scenario source, capped at maxSource bytes
// (negative: DSL creates disabled). JSON escapes a source byte into at most
// 6 bytes (\u00XX for control characters, <, > and &; \ufffd for a byte of
// invalid UTF-8), so a maximum-size source always fits.
func maxRequestBytes(maxSource int) int {
	return 6*max(maxSource, 0) + requestEnvelopeBytes
}

// errRequestTooLong is answered to a request line over maxRequestBytes;
// the server then closes the connection.
var errRequestTooLong = errors.New("farm: request line too long")

// readLine reads one '\n'-terminated line of at most limit bytes. A
// longer line stops the read at limit (buffering no more than that) and
// returns errRequestTooLong.
func readLine(br *bufio.Reader, limit int) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(line)+len(frag) > limit {
			return nil, errRequestTooLong
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

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
	// creates entirely). It also bounds every request line a connection
	// may send (maxRequestBytes): a longer line gets a wire error and the
	// connection is closed, so no client can grow the server's memory
	// without bound.
	MaxSourceBytes int
	// Logf, when set, receives one line per connection and session
	// lifecycle event.
	Logf func(format string, v ...any)
	// Workers bounds how many simulation advances run at once
	// (GOMAXPROCS when <=0). Every CPU-heavy request — run-until, step,
	// rewind — holds one of Workers slots while it runs, so total
	// simulation parallelism stays bounded no matter how many clients are
	// connected. Cluster sessions are no exception: a cluster's advance
	// runs on the one goroutine serving its request.
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
	sims  chan struct{} // one token per running simulation advance

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
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Server{
		opts:     opts,
		store:    store,
		sims:     make(chan struct{}, opts.Workers),
		programs: make(map[string]*codegen.Program),
		conns:    make(map[*conn]struct{}),
		sessions: make(map[string]*session),
	}, nil
}

// simDo runs one simulation advance on the request goroutine once one of
// the Workers slots is free. The goroutine keeps holding ss.mu
// (per-session isolation is unchanged); fn takes no locks, so the slot
// and the session mutex cannot deadlock.
func (s *Server) simDo(fn func() error) error {
	s.sims <- struct{}{}
	defer func() { <-s.sims }()
	return fn()
}

// Store exposes the server's checkpoint store (tests, tooling).
func (s *Server) Store() *Store { return s.store }

func (s *Server) logf(format string, v ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, v...)
	}
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
	limit := maxRequestBytes(c.srv.opts.MaxSourceBytes)
	for {
		line, err := readLine(br, limit)
		if err == errRequestTooLong {
			_ = c.writeJSON(ServerMsg{Error: fmt.Sprintf("%v (limit %d bytes); closing connection", err, limit)})
			c.lingerClose()
			return
		}
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

// lingerClose half-closes the connection and discards what the client is
// still sending for up to a second. Closing a socket with unread input
// resets it, and a reset can destroy the error line still in flight to a
// client that is busy writing the rest of an oversized request.
func (c *conn) lingerClose() {
	if tc, ok := c.nc.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = io.Copy(io.Discard, c.nc)
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
// run here; session-scoped methods resolve the session and run under the
// session lock.
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
	switch req.Method {
	case "attach":
		ss.sink = c
		ss.streamed = ss.dbg.Session.Trace.Len()
		res := AttachResult{
			Model:   ss.model,
			NowNs:   ss.dbg.Now(),
			Paused:  ss.dbg.Session.Paused(),
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
		return nil, ss.dbg.Session.ClearBreakpoint(p.ID)

	case "run-until":
		var p RunParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		until := p.UntilNs
		if until == 0 {
			until = ss.dbg.Now() + p.Ms*1_000_000
		}
		var err error
		if until > ss.dbg.Now() {
			err = s.simDo(func() error { return ss.dbg.RunNs(until - ss.dbg.Now()) })
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
		ss.dbg.Session.Continue()
		return s.runResult(ss), nil

	case "pause":
		ss.dbg.Session.Pause()
		return s.runResult(ss), nil

	case "checkpoint":
		cp, err := ss.dbg.Checkpoint()
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
			landed, rerr = ss.dbg.Session.RewindTo(toNs)
			return rerr
		})
		s.flushStream(ss)
		if err != nil {
			return nil, err
		}
		return RewindResult{LandedNs: landed, Records: ss.dbg.Session.Trace.Len()}, nil

	case "trace":
		tr := ss.dbg.Session.Trace
		return TraceResult{Stable: tr.FormatStable(), Records: tr.Len()}, nil

	case "journal":
		if ss.dbg.Recorder == nil {
			return nil, fmt.Errorf("farm: session %s keeps no host-action log (create it with recordMs)", ss.id)
		}
		// The reply is encoded after ss.mu is released, and a fork cuts and
		// reuses the log's slice; the records themselves never change.
		return JournalResult{Entries: slices.Clone(ss.dbg.Recorder.Host())}, nil
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
	es := ss.dbg.Session
	res := RunResult{
		NowNs:   ss.dbg.Now(),
		Paused:  es.Paused(),
		Handled: es.Handled,
		Records: es.Trace.Len(),
	}
	if es.LastBreak != nil {
		res.LastBreak = es.LastBreak.ID
		res.HaltNs = es.HaltNs()
	}
	return res
}

// flushStream pushes trace records appended since the last flush to the
// attached connection — an "events" batch plus one "incident" message per
// incident record. Called with ss.mu held. With no sink attached the
// cursor still advances (history is available via attach + trace).
func (s *Server) flushStream(ss *session) {
	tr := ss.dbg.Session.Trace
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
	recs := tr.Slice(ss.streamed, n)
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

// programFor compiles a scenario's one-node program once and shares the
// immutable program across every session with the same key — the
// built-in model name, or "dsl:"+source-digest for scenario sessions
// (identical source text compiles once no matter how many clients submit
// it). A multi-node scenario has no such program and caches nothing.
func (s *Server) programFor(key string, sc *dsl.Scenario) (*codegen.Program, error) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if p, ok := s.programs[key]; ok {
		return p, nil
	}
	p, err := sc.Program()
	if p != nil {
		s.programs[key] = p
	}
	return p, err
}

func (s *Server) handleCreate(raw json.RawMessage) (any, error) {
	var p CreateParams
	if err := unmarshalParams(raw, &p); err != nil {
		return nil, err
	}
	var sc *dsl.Scenario
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
		sc = loaded
		sum := sha256.Sum256([]byte(p.Source))
		model = "dsl:" + hex.EncodeToString(sum[:6])
	} else {
		sys, err := models.ByName(p.Model)
		if err != nil {
			return nil, err
		}
		sc = dsl.FromSystem(sys)
	}

	var cp *checkpoint.Checkpoint
	if p.Checkpoint != "" {
		var err error
		if cp, err = s.store.Get(p.Checkpoint); err != nil {
			return nil, err
		}
	}

	prog, err := s.programFor(model, sc)
	if err != nil {
		return nil, err
	}
	ss := &session{model: model}
	if ss.dbg, err = sc.Debug(repro.Active, prog); err != nil {
		return nil, err
	}

	resumed := cp != nil
	if resumed {
		if err := ss.dbg.RestoreCheckpoint(cp); err != nil {
			return nil, err
		}
	}
	if p.RecordMs != 0 {
		// Enable after any restore, so the initial recorder checkpoint sits
		// at the resumed instant rather than t=0.
		if _, err := ss.dbg.EnableCheckpointing(time.Duration(p.RecordMs) * time.Millisecond); err != nil {
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
		NowNs:   ss.dbg.Now(),
		Records: ss.dbg.Session.Trace.Len(),
	}
	if ss.dbg.Cluster != nil {
		res.Nodes = ss.dbg.Cluster.Nodes()
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
	res := DetachResult{TimeNs: ss.dbg.Now()}
	if p.Checkpoint {
		cp, err := ss.dbg.Checkpoint()
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
