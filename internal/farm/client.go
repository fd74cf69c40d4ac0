package farm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/trace"
)

// Client drives a farm server over one connection. Calls are synchronous
// and serialized; stream messages ("events", "incident", "rewound") that
// arrive while a call waits for its response are dispatched to the
// handler hooks in arrival order. gmdf -connect and the farm tests both
// sit on this type.
type Client struct {
	nc net.Conn
	br *bufio.Reader

	mu     sync.Mutex
	nextID uint64

	// OnEvents receives each streamed batch of trace records for an
	// attached session. Optional.
	OnEvents func(session string, events []trace.Record)
	// OnIncident receives each streamed incident record. Optional.
	OnIncident func(session string, ev trace.Record)
	// OnRewound is notified when an attached session's trace was truncated
	// by a rewind (refetch via TraceStable). Optional.
	OnRewound func(session string)
}

// Dial connects to a farm server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection.
func NewClient(nc net.Conn) *Client {
	return &Client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// Close drops the connection. Sessions persist server-side; re-attach by
// session id on a fresh connection.
func (c *Client) Close() error { return c.nc.Close() }

// Call performs one request and decodes the response into result (which
// may be nil). Stream messages arriving before the response are
// dispatched to the handler hooks.
func (c *Client) Call(method, session string, params, result any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req := Request{ID: c.nextID, Method: method, Session: session}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return err
		}
		req.Params = raw
	}
	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := c.nc.Write(line); err != nil {
		return err
	}
	for {
		msg, err := c.readMsg()
		if err != nil {
			return err
		}
		if msg.Stream != "" {
			c.dispatchStream(msg)
			continue
		}
		if msg.ID != req.ID {
			return fmt.Errorf("farm: response id %d for request %d", msg.ID, req.ID)
		}
		if msg.Error != "" {
			return fmt.Errorf("%s", msg.Error)
		}
		if result != nil && len(msg.Result) > 0 {
			return json.Unmarshal(msg.Result, result)
		}
		return nil
	}
}

func (c *Client) readMsg() (*ServerMsg, error) {
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var msg ServerMsg
	if err := json.Unmarshal(line, &msg); err != nil {
		return nil, fmt.Errorf("farm: malformed server message: %w", err)
	}
	return &msg, nil
}

func (c *Client) dispatchStream(msg *ServerMsg) {
	switch msg.Stream {
	case "events":
		if c.OnEvents != nil {
			c.OnEvents(msg.Session, msg.Events)
		}
	case "incident":
		if c.OnIncident != nil && msg.Event != nil {
			c.OnIncident(msg.Session, *msg.Event)
		}
	case "rewound":
		if c.OnRewound != nil {
			c.OnRewound(msg.Session)
		}
	}
}

// Create starts a new session (or resumes one from a checkpoint digest).
func (c *Client) Create(p CreateParams) (CreateResult, error) {
	var res CreateResult
	err := c.Call("create", "", p, &res)
	return res, err
}

// Attach binds this connection as the session's event stream sink.
func (c *Client) Attach(session string) (AttachResult, error) {
	var res AttachResult
	err := c.Call("attach", session, nil, &res)
	return res, err
}

// Break installs a model-level breakpoint.
func (c *Client) Break(session string, p BreakParams) (BreakResult, error) {
	var res BreakResult
	err := c.Call("break", session, p, &res)
	return res, err
}

// ClearBreak removes a breakpoint.
func (c *Client) ClearBreak(session, id string) error {
	return c.Call("clearbreak", session, ClearBreakParams{ID: id}, nil)
}

// RunFor advances the session ms virtual milliseconds (stops early at a
// breakpoint).
func (c *Client) RunFor(session string, ms uint64) (RunResult, error) {
	var res RunResult
	err := c.Call("run-until", session, RunParams{Ms: ms}, &res)
	return res, err
}

// RunUntil advances the session to an absolute virtual instant.
func (c *Client) RunUntil(session string, untilNs uint64) (RunResult, error) {
	var res RunResult
	err := c.Call("run-until", session, RunParams{UntilNs: untilNs}, &res)
	return res, err
}

// Step advances to the next model-level event.
func (c *Client) Step(session string, p StepParams) (RunResult, error) {
	var res RunResult
	err := c.Call("step", session, p, &res)
	return res, err
}

// Continue resumes a paused session (follow with RunFor to advance).
func (c *Client) Continue(session string) (RunResult, error) {
	var res RunResult
	err := c.Call("continue", session, nil, &res)
	return res, err
}

// Pause halts the session.
func (c *Client) Pause(session string) (RunResult, error) {
	var res RunResult
	err := c.Call("pause", session, nil, &res)
	return res, err
}

// Checkpoint stores the session state content-addressed and returns the
// digest.
func (c *Client) Checkpoint(session string) (CheckpointResult, error) {
	var res CheckpointResult
	err := c.Call("checkpoint", session, nil, &res)
	return res, err
}

// Rewind reverse-steps the session to a virtual instant.
func (c *Client) Rewind(session string, toNs uint64) (RewindResult, error) {
	var res RewindResult
	err := c.Call("rewind", session, RewindParams{ToNs: toNs}, &res)
	return res, err
}

// Detach ends the session; with checkpoint=true the returned digest
// resumes it elsewhere.
func (c *Client) Detach(session string, checkpoint bool) (DetachResult, error) {
	var res DetachResult
	err := c.Call("detach", session, DetachParams{Checkpoint: checkpoint}, &res)
	return res, err
}

// TraceStable fetches the session trace in the stable text format.
func (c *Client) TraceStable(session string) (TraceResult, error) {
	var res TraceResult
	err := c.Call("trace", session, nil, &res)
	return res, err
}

// Journal fetches the session's control-request journal.
func (c *Client) Journal(session string) (JournalResult, error) {
	var res JournalResult
	err := c.Call("journal", session, nil, &res)
	return res, err
}

// Stats fetches the server-wide counters.
func (c *Client) Stats() (Stats, error) {
	var res Stats
	err := c.Call("stats", "", nil, &res)
	return res, err
}
