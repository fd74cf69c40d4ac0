package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/bench/harness"
)

// bench is the state of one workload run: its configuration, the tracer
// of a traced run, and the result being assembled.
type bench struct {
	cfg config
	tr  *harness.Tracer
	res harness.Result
	tmp string // scratch directory under .bench_build, removed at the end

	// digests holds the output digest of every distinct plan item seen so
	// far; a repeat of an item must reproduce it exactly.
	digests map[string]string
	// cycle lists the pinned items' digests (the first plan cycle) in plan
	// order; its hash is the run's sim_digest.
	cycle []string

	setupFn    setupFunc
	setupTimes []float64 // s
	lastSetup  time.Time
}

func newBench(cfg config) *bench {
	return &bench{
		cfg: cfg,
		res: harness.Result{
			Workload: cfg.workload, Seed: cfg.seed, Scale: cfg.scale,
			Traced: cfg.trace, Seconds: cfg.seconds,
			Env: harness.CurrentEnv(), Correct: true,
			Metrics: map[string]harness.Metric{},
		},
		digests: map[string]string{},
	}
}

// problem records a failed correctness check.
func (b *bench) problem(format string, args ...any) {
	b.res.Correct = false
	b.res.Problems = append(b.res.Problems, fmt.Sprintf(format, args...))
}

// attempt counts one measured operation and, when err is non-nil, its
// failure.
func (b *bench) attempt(err error) {
	b.res.Attempted++
	if err != nil {
		b.res.Failed++
		b.problem("%v", err)
	}
}

// output checks one plan item's output digest: the first time an item
// runs its digest is recorded (and, when pinned, joins the sim_digest);
// every later run of the item must reproduce it.
func (b *bench) output(item string, pinned bool, digest string) {
	if want, ok := b.digests[item]; ok {
		if want != digest {
			b.res.Failed++
			b.problem("%s: output digest %.12s differs from the earlier run's %.12s", item, digest, want)
		}
		return
	}
	b.digests[item] = digest
	if pinned {
		b.cycle = append(b.cycle, item+"="+digest)
	}
}

// same checks that two independently produced outputs are identical.
func (b *bench) same(what, got, want string) {
	if got != want {
		b.res.Failed++
		b.problem("%s: %.12s != %.12s", what, got, want)
	}
}

// set reports a metric.
func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = harness.Metric{Value: v, Unit: unit}
}

// setupSamples is about how many times an untraced run times its set-up.
const setupSamples = 25

// setupFunc is one set-up of a workload. The run keeps what the first
// call builds; a later call builds the same again only to be timed, and
// returns what must be torn down after its timing ends (nil: nothing).
type setupFunc func() (teardown func(), err error)

// setup runs the workload's set-up once, timed, and remembers it for
// resetup.
func (b *bench) setup(fn setupFunc) error {
	b.setupFn = fn
	return b.timeSetup()
}

// timeSetup runs the set-up once more and records its time.
func (b *bench) timeSetup() error {
	start := time.Now()
	teardown, err := b.setupFn()
	d := time.Since(start)
	if teardown != nil {
		teardown()
	}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setupTimes = append(b.setupTimes, d.Seconds())
	b.lastSetup = time.Now()
	return nil
}

// resetup times the set-up again once a setupSamples-th of the run has
// passed since the last time. The measured loops call it between
// operations, when no session is live, so the set-up samples spread over
// the whole run. On a shared machine the speed of memory-bound work drifts
// between a fast and a slow state that each last up to seconds (set-up
// took 2.4 or 4.0 ms on the 2-core machine the bounds come from); set-ups
// timed back to back all land in one state, and their median then jumps
// between runs by the whole gap.
func (b *bench) resetup() error {
	if b.cfg.trace || time.Since(b.lastSetup) < b.setupEvery() {
		return nil
	}
	return b.timeSetup()
}

// setupEvery is the time between two timed set-ups.
func (b *bench) setupEvery() time.Duration {
	return time.Duration(b.cfg.seconds / setupSamples * float64(time.Second))
}

// finish reports setup_s and computes the sim_digest; a run that
// attempted nothing fails.
func (b *bench) finish() {
	if !b.cfg.trace && len(b.setupTimes) > 0 {
		b.res.Metrics["setup_s"] = harness.Metric{Value: harness.Median(b.setupTimes), Unit: "s", Samples: len(b.setupTimes)}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d scale=%g\n", b.cfg.workload, b.cfg.seed, b.cfg.scale)
	for _, d := range b.cycle {
		fmt.Fprintln(h, d)
	}
	b.res.SimDigest = hex.EncodeToString(h.Sum(nil))
	if b.res.Attempted == 0 {
		b.problem("no operation was attempted")
	}
}

// checkPins compares the sim_digest with the pinned one when an untraced
// run used the pinned seed and scale. A traced run covers a smaller fixed
// subset; its checks are traced = untraced instead.
func (b *bench) checkPins() {
	raw, err := os.ReadFile(b.cfg.pins)
	if err != nil {
		return
	}
	var pins struct {
		Seed      uint64            `json:"seed"`
		Scale     float64           `json:"scale"`
		SimDigest map[string]string `json:"sim_digest"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		b.problem("pins: %v", err)
		return
	}
	want, ok := pins.SimDigest[b.cfg.workload]
	if !ok || pins.Seed != b.cfg.seed || pins.Scale != b.cfg.scale || b.cfg.trace {
		return
	}
	if want != b.res.SimDigest {
		b.res.Failed++
		b.problem("sim_digest %s does not match the pinned %s", b.res.SimDigest, want)
	}
}

// rng is the plan generator: a splitmix64 stream.
type rng uint64

// newRNG derives a stream for one purpose (a workload, a client) from the
// run seed, so streams never share draws.
func newRNG(seed uint64, purpose string) *rng {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	r := rng(seed ^ h.Sum64())
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws uniformly from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm draws a permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// strata draws n values from [lo, hi), one uniformly from each of n equal
// strata, in a seeded order: every seed gets a different plan with the
// same spread of sizes, so rates and tails stay comparable across seeds.
func (r *rng) strata(n int, lo, hi uint64) []uint64 {
	w := (hi - lo) / uint64(n)
	out := make([]uint64, n)
	for i, s := range r.perm(n) {
		out[i] = lo + uint64(s)*w + r.next()%w
	}
	return out
}

// scaledMs scales a virtual duration in ms by the run's work factor,
// keeping it on the 1 ms pump grid and at least 1 ms.
func (b *bench) scaledMs(ms uint64) uint64 {
	return max(1, uint64(float64(ms)*b.cfg.scale))
}

// resetPeakRSS hands the freed heap back to the OS and resets this
// process's VmHWM to its current resident set, so that peak_rss_mb covers
// only the workload about to run and not one that ran before it in the
// same process (-workload all, or the tests).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM (peak resident set) of a process from procfs.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %s", pid)
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
