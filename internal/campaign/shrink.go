package campaign

// The repro shrinker: a violating variant re-forks from the same base
// checkpoint and binary-searches the shortest run window (on a 1 ms grid)
// that still violates. Valid because every acceptance predicate is
// monotone in the window — miss/drop counters only grow and observed
// worst responses only rise as the run extends — so "violates at w"
// implies "violates at every w' >= w".

// shrinkGrid is the window granularity (matches checkpoint.SliceNs, the
// grid every session polls on; finer windows would not change what the
// host observes).
const shrinkGrid = 1_000_000

// shrinkVariant finds the minimal violating window for v and returns it
// with the window's event trace. The caller guarantees the full RunNs
// window violates.
func shrinkVariant(r *runner, spec *Spec, v variant) (uint64, string, error) {
	window := func(k uint64) uint64 { return min(k*shrinkGrid, spec.RunNs) }
	probe := func(k uint64) (bool, error) {
		if err := r.fork(v); err != nil {
			return false, err
		}
		if err := r.run(window(k)); err != nil {
			return false, err
		}
		res, err := r.observe(v)
		if err != nil {
			return false, err
		}
		return len(res.Violations) > 0, nil
	}

	// Invariant: violates(hi) — the fleet pass saw the full window
	// violate, and the run is deterministic.
	lo, hi := uint64(1), (spec.RunNs+shrinkGrid-1)/shrinkGrid
	for lo < hi {
		mid := lo + (hi-lo)/2
		bad, err := probe(mid)
		if err != nil {
			return 0, "", err
		}
		if bad {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// One last run at the minimum leaves the runner holding the minimal
	// repro, whose trace is the artifact.
	if _, err := probe(lo); err != nil {
		return 0, "", err
	}
	return window(lo), r.traceText(), nil
}
