package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/bench/harness"
)

// runCompare implements `gmdfbench compare`: paired parent/change runs of
// the end-to-end metrics, judged per workload by harness.Decide with the
// bounds of BENCHMARK.json. With -run it first makes harness.MinPairs
// pairs of runs itself, alternating which side goes first in each pair.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gmdfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "parent result directory (with -run: parent checkout)")
	change := fs.String("change", "", "change result directory (with -run: change checkout)")
	specPath := fs.String("spec", "BENCHMARK.json", "BENCHMARK.json holding the metrics and bounds")
	doRun := fs.Bool("run", false, "run the pairs first, from the two checkouts")
	workload := fs.String("workload", "all", "workload to run (-run)")
	seed := fs.Uint64("seed", defaultSeed, "input seed of every run (-run); 7 is the held-out seed")
	seconds := fs.Int("seconds", 0, "measured seconds per run (-run; 0 = run_seconds of the spec)")
	out := fs.String("out", ".bench_build/compare", "where -run writes the result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := harness.ReadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "gmdfbench compare:", err)
		return 2
	}
	pdir, cdir := *parent, *change
	if *doRun {
		if *seconds == 0 {
			*seconds = spec.RunSeconds
		}
		pdir, cdir = filepath.Join(*out, "parent"), filepath.Join(*out, "change")
		sides := [2][2]string{{*parent, pdir}, {*change, cdir}}
		for i := range harness.MinPairs {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				dir, err := filepath.Abs(sides[s][1])
				if err != nil {
					fmt.Fprintln(stderr, "gmdfbench compare:", err)
					return 2
				}
				cmd := exec.Command("bash", "bench/run.sh", "-workload", *workload,
					"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", "0", "-out", dir)
				cmd.Dir = sides[s][0]
				cmd.Stdout, cmd.Stderr = stderr, stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(stderr, "gmdfbench compare: pair %d in %s: %v\n", i, sides[s][0], err)
					return 1
				}
			}
		}
	}
	rows, err := compareDirs(pdir, cdir, spec)
	if err != nil {
		fmt.Fprintln(stderr, "gmdfbench compare:", err)
		return 1
	}
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	return 0
}

// compareDirs pairs the untraced results of two directories per workload
// (the i-th parent run of a workload with its i-th change run, which must
// share the seed) and returns one line per workload.
func compareDirs(pdir, cdir string, spec *harness.Spec) ([]string, error) {
	load := func(dir string) (map[string][]*harness.Result, error) {
		rs, err := harness.ReadResults(dir)
		if err != nil {
			return nil, err
		}
		by := map[string][]*harness.Result{}
		for _, r := range rs {
			if !r.Traced {
				by[r.Workload] = append(by[r.Workload], r)
			}
		}
		return by, nil
	}
	pr, err := load(pdir)
	if err != nil {
		return nil, err
	}
	cr, err := load(cdir)
	if err != nil {
		return nil, err
	}
	env := ""
	for _, group := range []map[string][]*harness.Result{pr, cr} {
		for _, rs := range group {
			for _, r := range rs {
				if env == "" {
					env = r.Env.Key()
				} else if r.Env.Key() != env {
					return nil, fmt.Errorf("refusing to compare results from different machines: %s vs %s", env, r.Env.Key())
				}
			}
		}
	}
	var rows []string
	for _, w := range spec.Workloads {
		ps, cs := pr[w.Name], cr[w.Name]
		if len(ps) == 0 && len(cs) == 0 {
			continue
		}
		n := min(len(ps), len(cs))
		for i := range n {
			if ps[i].Seed != cs[i].Seed {
				return nil, fmt.Errorf("%s pair %d: parent seed %d, change seed %d", w.Name, i, ps[i].Seed, cs[i].Seed)
			}
		}
		row := w.Name + ":"
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			for i := range n {
				pv = append(pv, ps[i].Metrics[m.Name].Value)
				cv = append(cv, cs[i].Metrics[m.Name].Value)
			}
			d, err := harness.Decide(pv, cv, m.HigherBetter(), m.Bound)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			row += fmt.Sprintf("  %s=%s (%.4g→%.4g %s, wins %d/%d)",
				m.Name, d.Verdict, d.Parent, d.Change, m.Unit, d.Wins, d.Pairs)
		}
		for _, side := range [][]*harness.Result{ps[:n], cs[:n]} {
			for _, r := range side {
				if !r.Correct || r.Failed > 0 {
					row += fmt.Sprintf("  FAILED-RUN(seed %d)", r.Seed)
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// calibration is one (workload, metric) row of `gmdfbench calibrate`.
type calibration struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	IQRShare float64 `json:"iqrShare"`
	// Bound is max(3%, 2 × (max − min) ÷ median): the regression bound
	// this spread supports.
	Bound float64 `json:"bound"`
}

// runCalibrate implements `gmdfbench calibrate [-json FILE] DIR`: per
// workload and end-to-end metric, the spread of the untraced runs in DIR
// and the bound it supports, as a table (and as JSON in FILE).
func runCalibrate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gmdfbench calibrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonPath := fs.String("json", "", "also write the rows as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: gmdfbench calibrate [-json FILE] RESULT_DIR")
		return 2
	}
	rs, err := harness.ReadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "gmdfbench calibrate:", err)
		return 1
	}
	values := map[[2]string][]float64{}
	units := map[string]string{}
	for _, r := range rs {
		if r.Traced {
			continue
		}
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			values[k] = append(values[k], m.Value)
			units[name] = m.Unit
		}
	}
	keys := make([][2]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var cal []calibration
	for _, k := range keys {
		xs := harness.Sorted(values[k])
		med := harness.Median(xs)
		c := calibration{
			Workload: k[0], Metric: k[1], Unit: units[k[1]], Runs: len(xs),
			Median: med, Min: xs[0], Max: xs[len(xs)-1], IQRShare: harness.IQRShare(xs),
		}
		c.Bound = math.Max(0.03, 2*(c.Max-c.Min)/math.Abs(med))
		cal = append(cal, c)
		fmt.Fprintf(stdout, "%-15s %-14s n=%-3d median=%-12.6g min=%-12.6g max=%-12.6g iqr/med=%6.3f bound=%6.3f\n",
			c.Workload, c.Metric, c.Runs, c.Median, c.Min, c.Max, c.IQRShare, c.Bound)
	}
	if *jsonPath != "" {
		raw, err := json.MarshalIndent(cal, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "gmdfbench calibrate:", err)
			return 1
		}
	}
	return 0
}
