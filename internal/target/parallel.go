package target

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dtm"
)

// Parallel cluster execution: conservative parallel discrete-event
// simulation over the TDMA lookahead (ROADMAP item 2).
//
// Each node owns a kernel; Cluster.RunUntil advances all of them through
// a sequence of windows [start, H) where H is Network.DeliveryBound(start)
// — the earliest instant any frame not yet submitted could arrive
// anywhere. The sorted nodes are split into one contiguous shard per core
// (min(GOMAXPROCS, nodes), fixed when the cluster is built); a shard's
// nodes run on one goroutine as a single stream merged in (at, schedAt,
// node index) order (dtm.RunMerged), and the shards run concurrently —
// the calling goroutine runs shard 0, so a one-shard cluster starts no
// goroutine at all.
//
// Within a window nodes interact only through the Network, and only in
// one direction: a send decides the frame's departure slot, jitter and
// loss by drawing from shared state (RNG, slot cursors, delivery counter).
// Those draws are the one place real-time scheduling could leak into
// virtual-time results, so sends are arbitrated: a sender blocks until
// every other shard's event frontier has passed its own current event,
// which hands the draws out in exactly the order a serial shared kernel
// would have made them. Deliveries minted during a window are buffered and
// flushed into the destination kernels at the barrier (their arrival
// instants are ≥ H by construction, so they belong to later windows
// anyway).
//
// Ties: the serial kernel orders events by (at, schedAt, seq). The
// frontier carries (at, schedAt, node index); seq is per-kernel and
// incomparable across nodes, so a full-prefix tie falls back to sorted
// node order — identical to serial for chains that ground out in Start()
// (which schedules nodes in sorted order and preserves relative order
// inductively). A shard merges its nodes by the same key, so sends inside
// one shard are already in arbitration order. See doc.go for the
// semantics matrix.

// sendKey is a shard's event frontier: the ordering key of the event its
// goroutine is about to run.
type sendKey struct {
	at, schedAt, node uint64
}

// before reports a < b in frontier order.
func (a sendKey) before(b sendKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.node < b.node
}

// frontier is one shard's published event frontier. The padding keeps
// each shard's hot stores on a cache line of its own.
type frontier struct {
	at, schedAt, node atomic.Uint64
	done              atomic.Bool
	_                 [64]byte
}

// load reads the frontier most-significant component first.
func (f *frontier) load() sendKey {
	return sendKey{at: f.at.Load(), schedAt: f.schedAt.Load(), node: f.node.Load()}
}

// arbiter serializes cross-node sends into serial virtual-time order.
// Shard goroutines publish their frontier before each event; a send blocks
// until no other live shard could still execute an earlier event.
//
// publish runs on every event, so it is lock-free: the frontier is three
// atomics per shard, written least-significant component first and read
// most-significant first. Because a shard's event keys are nondecreasing
// within a window, any torn read composes a key that is at most the
// writer's true frontier — the reader can only under-estimate, which makes
// it wait and re-check, never proceed early. Writers broadcast only when a
// waiter is registered (waiters is incremented under mu before the waiter
// reads any frontier, so with sequentially consistent atomics a publisher
// either sees the waiter and broadcasts, or the waiter's reads see the
// publisher's stores — no missed wakeup either way).
type arbiter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	shardOf map[string]int // node -> its shard
	front   []frontier     // one per shard
	waiters atomic.Int32
}

func newArbiter(nodes []string, shards []shard) *arbiter {
	a := &arbiter{
		shardOf: make(map[string]int, len(nodes)),
		front:   make([]frontier, len(shards)),
	}
	a.cond = sync.NewCond(&a.mu)
	for s, sh := range shards {
		for _, node := range nodes[sh.base : sh.base+len(sh.kernels)] {
			a.shardOf[node] = s
		}
		// No window is open between RunUntil slices; a send issued there
		// (host tooling) has nothing to order against and must not block.
		a.front[s].done.Store(true)
	}
	return a
}

// reset opens a window: every shard is live again with a zeroed frontier.
// Called at the barrier, when no shard is running.
func (a *arbiter) reset() {
	for s := range a.front {
		f := &a.front[s]
		f.done.Store(false)
		f.at.Store(0)
		f.schedAt.Store(0)
		f.node.Store(0)
	}
}

// publish advances shard s's frontier to the event it is about to execute.
func (a *arbiter) publish(s int, k sendKey) {
	f := &a.front[s]
	f.node.Store(k.node)
	f.schedAt.Store(k.schedAt)
	f.at.Store(k.at)
	a.wake()
}

// finish marks shard s's window complete: no further events before the
// barrier, so nobody waits on it.
func (a *arbiter) finish(s int) {
	a.front[s].done.Store(true)
	a.wake()
}

// wake broadcasts to registered waiters. The empty critical section orders
// the broadcast after any waiter that registered before our state store:
// such a waiter is either still before its re-check (and will read the new
// state) or parked in Wait (and receives the broadcast).
func (a *arbiter) wake() {
	if a.waiters.Load() == 0 {
		return
	}
	a.mu.Lock()
	a.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	a.cond.Broadcast()
}

// await blocks node's send until every other live shard's frontier has
// passed the sender's current event. Deadlock-free: the shard with the
// globally minimal frontier never blocks, and every shard eventually
// publishes a later frontier or finishes.
func (a *arbiter) await(node string) {
	s, ok := a.shardOf[node]
	if !ok {
		return
	}
	if a.front[s].done.Load() {
		return // outside a window
	}
	// Own frontier is exact: the same goroutine published it.
	key := a.front[s].load()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.waiters.Add(1)
	defer a.waiters.Add(-1)
	for {
		clear := true
		for j := range a.front {
			f := &a.front[j]
			if j == s || f.done.Load() {
				continue
			}
			if f.load().before(key) {
				clear = false
				break
			}
		}
		if clear {
			return
		}
		a.cond.Wait()
	}
}

// shard is a contiguous run of the sorted nodes whose kernels one
// goroutine advances as a single merged event stream.
type shard struct {
	kernels []*dtm.Kernel
	base    int // index of the shard's first node in sorted node order
	// publish is the shard's frontier hook for dtm.RunMerged (nil without
	// an arbiter); last is the key it published most recently, so a run of
	// events sharing one key publishes once. Both belong to the goroutine
	// running the shard.
	publish func(i int, at, schedAt uint64)
	last    sendKey
}

// setShards splits the sorted nodes into n contiguous shards (n clamped to
// [1, nodes]) and installs the send arbiter when more than one shard runs
// concurrently. BuildCluster calls it with GOMAXPROCS; it must not be
// called while a Hold is open.
func (c *Cluster) setShards(n int) {
	n = max(1, min(n, len(c.nodes)))
	c.shards = make([]shard, n)
	for s := range c.shards {
		lo, hi := s*len(c.nodes)/n, (s+1)*len(c.nodes)/n
		sh := &c.shards[s]
		sh.base = lo
		for _, node := range c.nodes[lo:hi] {
			sh.kernels = append(sh.kernels, c.kernels[node])
		}
	}
	c.arb, c.Net.OnSend = nil, nil
	if n == 1 {
		// One goroutine runs every node in (at, schedAt, node index)
		// order, which is the arbitration order itself.
		return
	}
	c.arb = newArbiter(c.nodes, c.shards)
	c.Net.OnSend = c.arb.await
	for s := range c.shards {
		sh := &c.shards[s]
		sh.publish = func(i int, at, schedAt uint64) {
			if k := (sendKey{at, schedAt, uint64(sh.base + i)}); k != sh.last {
				sh.last = k
				c.arb.publish(s, k)
			}
		}
	}
}

// runShard runs shard s's events for one window. The shard is marked
// finished even when an event panics, so the other shards never wait on
// it.
func (c *Cluster) runShard(s int, win window) {
	sh := &c.shards[s]
	if c.arb != nil {
		// reset zeroed the published frontier; the skip cache follows it.
		sh.last = sendKey{}
		defer c.arb.finish(s)
	}
	dtm.RunMerged(sh.kernels, win.limit, win.incl, sh.publish)
}

// window is one conservative lookahead round handed to every shard: run
// events below limit (at or below when incl — the final, RunUntil-style
// window), then report at the barrier.
type window struct {
	limit uint64
	incl  bool
}

// workers is the parallel executor's goroutine pool: one worker per shard
// after the first (the caller runs shard 0), parked on its command
// channel between windows.
type workers struct {
	cmds []chan window  // cmds[s-1] drives shard s
	busy sync.WaitGroup // one count per worker in the open window
	live sync.WaitGroup // one count per running worker
}

// startWorkers starts one worker per shard after the first; stop ends
// them.
func (c *Cluster) startWorkers() *workers {
	w := &workers{cmds: make([]chan window, len(c.shards)-1)}
	w.live.Add(len(w.cmds))
	for i := range w.cmds {
		s, ch := i+1, make(chan window, 1)
		w.cmds[i] = ch
		go func() {
			defer w.live.Done()
			for win := range ch {
				c.runShard(s, win)
				w.busy.Done()
			}
		}()
	}
	return w
}

// stop closes every worker's command channel and returns once all of them
// have exited. Called at a barrier, when every worker is parked (or, after
// a panic in shard 0, while they finish their window).
func (w *workers) stop() {
	for _, ch := range w.cmds {
		close(ch)
	}
	w.live.Wait()
}

// Hold runs fn with the parallel executor's workers started once for the
// whole call: every RunUntil inside fn hands its windows to the same
// workers, which stay parked at the barriers between slices, instead of
// starting a goroutine per shard per RunUntil. Hold starts one worker per
// shard after the first (none on a one-shard cluster); the workers exit
// before Hold returns, also when fn returns early or panics, so none
// outlives the outer host call. Between RunUntil calls every worker is
// parked, so host tooling inside fn (instructions, inputs, snapshots) sees
// a quiescent cluster exactly as without Hold. Nested calls reuse the
// outer workers; on a serial cluster Hold just calls fn.
func (c *Cluster) Hold(fn func()) {
	if !c.parallel || c.pool != nil {
		fn()
		return
	}
	c.pool = c.startWorkers()
	defer func() {
		c.pool.stop()
		c.pool = nil
	}()
	fn()
}

// runParallel advances all nodes to t through conservative lookahead
// windows: the caller runs shard 0 and the workers of the enclosing Hold
// run the others (RunUntil opens one for itself when its caller did not).
// A typical slice spans several windows, and a host session runs many
// slices per call, so workers are started once per outer host call rather
// than per window or per slice. Invariants at every barrier: all workers
// parked, buffered deliveries flushed into their destination kernels,
// every kernel (and the facade clock) advanced to the horizon — which
// makes barriers valid snapshot points, byte-identical to the serial
// run's.
func (c *Cluster) runParallel(t uint64) {
	w := c.pool
	for {
		start := c.Kernel.Now()
		limit := c.Net.DeliveryBound(start)
		final := limit > t
		if final {
			limit = t
		} else if limit <= start {
			// Zero lookahead means a zero-latency network; BuildCluster
			// defaults LatencyNs, so this is unreachable from cluster code —
			// fail loudly rather than spin.
			panic(fmt.Sprintf("target: parallel window without lookahead at t=%d", start))
		}
		if c.arb != nil {
			c.arb.reset()
		}
		win := window{limit: limit, incl: final}
		w.busy.Add(len(w.cmds))
		for _, ch := range w.cmds {
			ch <- win
		}
		c.runShard(0, win)
		w.busy.Wait()
		if err := c.Net.FlushDeliveries(); err != nil {
			panic(fmt.Sprintf("target: barrier delivery flush: %v", err))
		}
		for _, node := range c.nodes {
			c.kernels[node].AdvanceTo(limit)
		}
		c.Kernel.AdvanceTo(limit)
		if final {
			return
		}
	}
}
