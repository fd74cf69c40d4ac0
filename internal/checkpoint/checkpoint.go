// Package checkpoint turns the explicit-state snapshots of the lower
// layers into checkpoint-replay debugging: the paper's DTM workflow wants
// to revisit the moment a timing anomaly occurred, but long runs were
// one-shot — once the virtual clock passed a deadline miss, the only
// recourse was a full rerun.
//
// A board is a one-node target. Target is the small node-indexed view a
// *target.Board and a *target.Cluster both satisfy (the clock, RunUntil,
// the node names, a node's board), and everything here is written once
// against it. Capture composes the target's snapshot with the host-side
// session state and the per-node command channels into one serializable
// Checkpoint; Apply restores one. A board checkpoint keeps its "board" +
// "host" layout and a cluster checkpoint its "cluster" + "clusterHost"
// layout, so version-1 files written before the two paths merged still
// load. One Recorder, keyed by node, takes checkpoints periodically while
// logging the non-deterministic inputs (environment writes, host
// actions), so a session can reverse-step to the last checkpoint and
// deterministically re-execute forward to any instant
// (engine.Session.RewindTo / ReplayUntil).
//
// Determinism contract: everything below the host is a pure function of
// the restored state — the kernel replays pending events in their original
// sequence positions, the VM machines resume at exact instruction
// boundaries, the UART delivers the same bytes at the same instants, and a
// cluster's bus draws loss and jitter from the captured RNG. One loop,
// Advance, moves every live run, rewind and replay: it polls the host side
// only at multiples of SliceNs, so a stop off that grid changes nothing.
// The two inputs that are NOT functions of target state are captured in
// the Recorder's logs, and Advance re-applies them below the frontier
// where they were made: environment-hook writes at their release site,
// host actions at their instant. A host action is a session command, an
// input write or a raw wire instruction, made between Advance calls, or a
// restore. The host log is plain data (JSON-marshallable InputRecords): a
// command is an engine.Command value and replays by being given to the
// session again (Session.Do), and a restore keeps the checkpoint it
// applied. Whatever Advance makes itself (bus
// deliveries, re-latches, the one-shot disarm) the replay makes again. A
// host action below the frontier forks the timeline there, and so does a
// restore; the environment, whose own state cannot be rewound, keeps its
// log up to the farthest instant it ran to.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/target"
)

// Version is the serialized checkpoint format version.
const Version = 1

// Target is what a checkpoint captures and a Recorder drives: a
// *target.Board (one node) or a *target.Cluster, seen through one
// node-indexed view on one virtual clock.
type Target interface {
	Now() uint64
	RunUntil(t uint64)
	RunThrough(t uint64)
	Nodes() []string
	Board(node string) *target.Board
}

// HostState is the host half of a checkpoint: the session (trace,
// breakpoints, run mode) and the serial command channel.
type HostState struct {
	Session engine.SessionState       `json:"session"`
	Serial  *engine.SerialSourceState `json:"serial,omitempty"`
}

// ClusterHostState is the host half of a distributed checkpoint: one
// session animated by the whole cluster plus the per-node serial command
// channels (keyed by node name).
type ClusterHostState struct {
	Session engine.SessionState                 `json:"session"`
	Serials map[string]engine.SerialSourceState `json:"serials,omitempty"`
}

// Checkpoint is one complete execution state: a standalone board or a
// whole cluster, plus (optionally) the host session attached to it. It is
// a plain value — JSON-serializable, so a checkpoint written by one
// process restores in a fresh one.
type Checkpoint struct {
	Version int    `json:"version"`
	Time    uint64 `json:"time"`

	Board       *target.BoardState   `json:"board,omitempty"`
	Cluster     *target.ClusterState `json:"cluster,omitempty"`
	Host        *HostState           `json:"host,omitempty"`
	ClusterHost *ClusterHostState    `json:"clusterHost,omitempty"`
}

// Clone returns a deep copy of the checkpoint (nil-safe) by a Marshal +
// Decode round trip, the one serialization path. It returns nil when the
// checkpoint does not round-trip (a hand-built one of another Version).
//
// Deprecated: restore the checkpoint itself. Restore copies state in and
// never writes its input, so one checkpoint can be restored any number of
// times, into any number of debuggers at once.
func (c *Checkpoint) Clone() *Checkpoint {
	if c == nil {
		return nil
	}
	b, err := c.Marshal()
	if err != nil {
		return nil
	}
	cp, err := Decode(bytes.NewReader(b))
	if err != nil {
		return nil
	}
	return cp
}

// Node returns the captured state of the named node's board in either
// layout, or nil, so callers need not know which layout the checkpoint
// has. The state is the checkpoint's own, not a copy: a campaign edits
// it once, on its base, before any fork restores it.
func (c *Checkpoint) Node(name string) *target.BoardState {
	switch {
	case c.Board != nil && c.Board.Name == name:
		return c.Board
	case c.Cluster != nil:
		return c.Cluster.Boards[name]
	}
	return nil
}

// Session returns the captured host session in either layout, or nil
// when the checkpoint carries none. Like Node, it points into the
// checkpoint.
func (c *Checkpoint) Session() *engine.SessionState {
	switch {
	case c.Host != nil:
		return &c.Host.Session
	case c.ClusterHost != nil:
		return &c.ClusterHost.Session
	}
	return nil
}

// Net returns a cluster checkpoint's network state (the bus), or nil for
// a board. Like Node, it points into the checkpoint.
func (c *Checkpoint) Net() *dtm.NetworkState {
	if c.Cluster == nil {
		return nil
	}
	return &c.Cluster.Net
}

// Encode writes the checkpoint's serialized form.
func (c *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// Decode reads a checkpoint written by Encode.
func Decode(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if c.Version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", c.Version, Version)
	}
	return &c, nil
}

// Marshal returns the checkpoint's canonical serialized form — the exact
// bytes Encode writes. Content addressing (Digest, the farm's checkpoint
// store) hashes these bytes, so Marshal is the one serialization path.
func (c *Checkpoint) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DigestBytes is the content address of a serialized checkpoint: the hex
// SHA-256 of its canonical bytes.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Digest serializes the checkpoint and returns its content address. Two
// checkpoints of byte-identical execution states digest identically, so a
// store keyed by Digest deduplicates repeated captures for free and a
// reader can verify integrity by re-hashing what it fetched.
func (c *Checkpoint) Digest() (string, error) {
	b, err := c.Marshal()
	if err != nil {
		return "", err
	}
	return DigestBytes(b), nil
}

// WriteFile serializes the checkpoint to a file.
func (c *Checkpoint) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile deserializes a checkpoint from a file.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Capture snapshots a target plus the host session attached to it (s may
// be nil) and its command channels, keyed by node (nil or partial on
// passive sessions). It is the one place that knows the two serialized
// layouts: a board writes "board" + "host", a cluster "cluster" +
// "clusterHost".
func Capture(t Target, s *engine.Session, serials map[string]*engine.SerialSource) (*Checkpoint, error) {
	cp := &Checkpoint{Version: Version, Time: t.Now()}
	switch t := t.(type) {
	case *target.Board:
		bs, err := t.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Board = bs
		if s != nil {
			cp.Host = &HostState{Session: s.Snapshot()}
			if src := serials[t.Name]; src != nil {
				ss := src.Snapshot()
				cp.Host.Serial = &ss
			}
		}
	case *target.Cluster:
		cs, err := t.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Cluster = cs
		if s != nil {
			cp.ClusterHost = &ClusterHostState{Session: s.Snapshot()}
			if len(serials) > 0 {
				cp.ClusterHost.Serials = make(map[string]engine.SerialSourceState, len(serials))
				for node, src := range serials {
					cp.ClusterHost.Serials[node] = src.Snapshot()
				}
			}
		}
	default:
		return nil, fmt.Errorf("checkpoint: cannot capture a %T", t)
	}
	return cp, nil
}

// Apply restores a checkpoint onto a target built from the same system
// (possibly in a fresh process), rewinding the attached host session (s
// may be nil) and the command channels alongside it.
func Apply(cp *Checkpoint, t Target, s *engine.Session, serials map[string]*engine.SerialSource) error {
	switch t := t.(type) {
	case *target.Board:
		if cp.Board == nil {
			return fmt.Errorf("checkpoint: no board state (cluster checkpoint?)")
		}
		if err := t.Restore(cp.Board); err != nil {
			return err
		}
		if cp.Host == nil || s == nil {
			return nil
		}
		if err := s.Restore(cp.Host.Session); err != nil {
			return err
		}
		if src := serials[t.Name]; cp.Host.Serial != nil && src != nil {
			src.Restore(*cp.Host.Serial)
		}
	case *target.Cluster:
		if cp.Cluster == nil {
			return fmt.Errorf("checkpoint: no cluster state")
		}
		if err := t.Restore(cp.Cluster); err != nil {
			return err
		}
		if cp.ClusterHost == nil || s == nil {
			return nil
		}
		if err := s.Restore(cp.ClusterHost.Session); err != nil {
			return err
		}
		for node, st := range cp.ClusterHost.Serials {
			if src, ok := serials[node]; ok {
				src.Restore(st)
			}
		}
	default:
		return fmt.Errorf("checkpoint: cannot restore a %T", t)
	}
	return nil
}
