package target

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Parallel cluster execution: conservative parallel discrete-event
// simulation over the TDMA lookahead (ROADMAP item 2).
//
// Each node owns a kernel; Cluster.RunUntil advances all of them
// concurrently through a sequence of windows [start, H) where H is
// Network.DeliveryBound(start) — the earliest instant any frame not yet
// submitted could arrive anywhere. Within a window nodes interact only
// through the Network, and only in one direction: a send decides the
// frame's departure slot, jitter and loss by drawing from shared state
// (RNG, slot cursors, delivery counter). Those draws are the one place
// real-time scheduling could leak into virtual-time results, so sends are
// arbitrated: a sender blocks until every other node's event frontier has
// passed its own current event, which hands the draws out in exactly the
// order a serial shared kernel would have made them. Deliveries minted
// during a window are buffered and flushed into the destination kernels at
// the barrier (their arrival instants are ≥ H by construction, so they
// belong to later windows anyway).
//
// Ties: the serial kernel orders events by (at, schedAt, seq). The
// frontier carries (at, schedAt); seq is per-kernel and incomparable
// across nodes, so a full-prefix tie falls back to sorted node order —
// identical to serial for chains that ground out in Start() (which
// schedules nodes in sorted order and preserves relative order
// inductively). See doc.go for the semantics matrix.

// sendKey is a node's event frontier: the (at, schedAt) ordering prefix of
// the event its worker is about to run.
type sendKey struct {
	at, schedAt uint64
}

// before reports a < b in frontier order.
func (a sendKey) before(b sendKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.schedAt < b.schedAt
}

// arbiter serializes cross-node sends into serial virtual-time order. Node
// workers publish their frontier before each event; a send blocks until no
// live node could still execute an earlier event.
//
// publish runs on every event of every node, so it is lock-free: the
// frontier is a pair of atomics per node, written schedAt-then-at and read
// at-then-schedAt. Because a node's event instants are nondecreasing
// within a window, any torn read composes an (at, schedAt) that is at most
// the writer's true frontier — the reader can only under-estimate, which
// makes it wait and re-check, never proceed early. Writers broadcast only
// when a waiter is registered (waiters is incremented under mu before the
// waiter reads any frontier, so with sequentially consistent atomics a
// publisher either sees the waiter and broadcasts, or the waiter's reads
// see the publisher's stores — no missed wakeup either way).
type arbiter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	idx     map[string]int
	at      []atomic.Uint64
	schedAt []atomic.Uint64
	done    []atomic.Bool
	waiters atomic.Int32
}

func newArbiter(nodes []string) *arbiter {
	a := &arbiter{
		idx:     make(map[string]int, len(nodes)),
		at:      make([]atomic.Uint64, len(nodes)),
		schedAt: make([]atomic.Uint64, len(nodes)),
		done:    make([]atomic.Bool, len(nodes)),
	}
	a.cond = sync.NewCond(&a.mu)
	for i, n := range nodes {
		a.idx[n] = i
		// No window is open between RunUntil slices; a send issued there
		// (host tooling) has nothing to order against and must not block.
		a.done[i].Store(true)
	}
	return a
}

// reset opens a window: every node is live again with a zeroed frontier.
// Called at the barrier, when no worker is running.
func (a *arbiter) reset() {
	for i := range a.done {
		a.done[i].Store(false)
		a.at[i].Store(0)
		a.schedAt[i].Store(0)
	}
}

// publish advances node i's frontier to the event it is about to execute.
func (a *arbiter) publish(i int, k sendKey) {
	a.schedAt[i].Store(k.schedAt)
	a.at[i].Store(k.at)
	a.wake()
}

// finish marks node i's window complete: no further events before the
// barrier, so nobody waits on it.
func (a *arbiter) finish(i int) {
	a.done[i].Store(true)
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

// await blocks node's send until every other live node's frontier has
// passed the sender's current event (ties by node order). Deadlock-free:
// the node with the globally minimal (frontier, index) never blocks, and
// every worker eventually publishes a later frontier or finishes.
func (a *arbiter) await(node string) {
	i, ok := a.idx[node]
	if !ok {
		return
	}
	if a.done[i].Load() {
		return // outside a window
	}
	// Own frontier is exact: the same goroutine published it.
	key := sendKey{at: a.at[i].Load(), schedAt: a.schedAt[i].Load()}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.waiters.Add(1)
	defer a.waiters.Add(-1)
	for {
		clear := true
		for j := range a.at {
			if j == i || a.done[j].Load() {
				continue
			}
			fj := sendKey{at: a.at[j].Load(), schedAt: a.schedAt[j].Load()}
			if fj.before(key) || (fj == key && j < i) {
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

// window is one conservative lookahead round handed to every worker: run
// events below limit (at or below when incl — the final, RunUntil-style
// window), then report at the barrier.
type window struct {
	limit uint64
	incl  bool
}

// workers is the parallel executor's goroutine pool: one worker per node,
// parked on its command channel between windows.
type workers struct {
	cmds []chan window
	busy sync.WaitGroup // one count per node in the open window
	live sync.WaitGroup // one count per running worker
}

// startWorkers starts one worker per node; stop ends them.
func (c *Cluster) startWorkers() *workers {
	w := &workers{cmds: make([]chan window, len(c.nodes))}
	w.live.Add(len(c.nodes))
	for i, node := range c.nodes {
		i, k, ch := i, c.kernels[node], make(chan window, 1)
		w.cmds[i] = ch
		go func() {
			defer w.live.Done()
			for win := range ch {
				k.RunWindow(win.limit, win.incl, func(at, schedAt uint64) {
					c.arb.publish(i, sendKey{at, schedAt})
				})
				c.arb.finish(i)
				w.busy.Done()
			}
		}()
	}
	return w
}

// stop closes every worker's command channel and returns once all of them
// have exited. Called at a barrier, when every worker is parked.
func (w *workers) stop() {
	for _, ch := range w.cmds {
		close(ch)
	}
	w.live.Wait()
}

// Hold runs fn with the parallel executor's workers started once for the
// whole call: every RunUntil inside fn hands its windows to the same
// workers, which stay parked at the barriers between slices, instead of
// starting a goroutine per node per RunUntil. The workers exit before
// Hold returns, also when fn returns early or panics, so none outlives
// the outer host call. Between RunUntil calls every worker is parked, so
// host tooling inside fn (instructions, inputs, snapshots) sees a
// quiescent cluster exactly as without Hold. Nested calls reuse the
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
// windows on the workers of the enclosing Hold (RunUntil opens one for
// itself when its caller did not). A typical slice spans several
// windows, and a host session runs many slices per call, so workers are
// started once per outer host call rather than per window or per slice.
// Invariants at every barrier: all workers parked, buffered deliveries
// flushed into their destination kernels, every kernel (and the facade
// clock) advanced to the horizon — which makes barriers valid snapshot
// points, byte-identical to the serial run's.
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
		c.arb.reset()
		w.busy.Add(len(w.cmds))
		for _, ch := range w.cmds {
			ch <- window{limit: limit, incl: final}
		}
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
