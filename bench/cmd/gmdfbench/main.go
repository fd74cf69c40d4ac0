// Command gmdfbench is the repository benchmark: four seeded workloads
// driven through the public APIs of the repro facade, the debug farm
// (a gmdfd child process) and the campaign engine.
//
//	gmdfbench -workload board_live -seed 2010 -seconds 25 -trace 0
//	gmdfbench -workload all -trace 1
//	gmdfbench compare -parent DIR -change DIR
//	gmdfbench calibrate [-json FILE] DIR
//
// An untraced run (-trace 0) prints every end-to-end metric of
// BENCHMARK.json; a traced run (-trace 1, or -trace FILE to choose where
// the Chrome trace goes) prints every per-layer metric. Each run also
// writes a result file under -out, and its last line on standard output
// is one JSON object: correct, attempted, failed and metrics. Any failed
// correctness check makes the exit status non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/bench/harness"
)

// defaultSeed is the seed the pins in bench/pins.json are taken at. Seed
// 7 is held out: it is never used while tuning the benchmark or a change.
const defaultSeed = 2010

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "calibrate":
			return runCalibrate(args[1:], stdout, stderr)
		}
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "gmdfbench:", err)
		return 2
	}
	spec, err := harness.ReadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "gmdfbench:", err)
		return 2
	}
	all := cfg.workload == "all"
	names := []string{cfg.workload}
	if all {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		c := cfg
		c.workload = name
		if c := runOne(c, all, spec, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

type config struct {
	root      string  // repository root: BENCHMARK.json, examples, bench/pins.json
	workload  string  // a workload name or "all"
	seed      uint64  // input seed
	seconds   float64 // measured time per run
	scale     float64 // work size factor: 1, except in the smoke test
	trace     bool    // traced run: per-layer metrics
	tracePath string  // Chrome trace output ("" = under -out)
	gmdfd     string  // gmdfd binary for farm_debug
	out       string  // result file directory
	pins      string  // pinned digests
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("gmdfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := config{scale: 1}
	var traceFlag string
	fs.StringVar(&c.root, "root", ".", "repository root")
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&c.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&c.seconds, "seconds", 25, "measured seconds per run (run_seconds in BENCHMARK.json)")
	fs.StringVar(&traceFlag, "trace", "0", "0: end-to-end metrics; 1 or a file name: per-layer metrics and a Chrome trace")
	fs.StringVar(&c.gmdfd, "gmdfd", "", "gmdfd binary (default <root>/.bench_build/bin/gmdfd)")
	fs.StringVar(&c.out, "out", "", "result directory (default <root>/.bench_build/results)")
	fs.StringVar(&c.pins, "pins", "", "pinned digests (default <root>/bench/pins.json)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch traceFlag {
	case "0", "":
	case "1":
		c.trace = true
	default:
		c.trace, c.tracePath = true, traceFlag
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive")
	}
	build := filepath.Join(c.root, ".bench_build")
	if c.gmdfd == "" {
		c.gmdfd = filepath.Join(build, "bin", "gmdfd")
	}
	if c.out == "" {
		c.out = filepath.Join(build, "results")
	}
	if c.pins == "" {
		c.pins = filepath.Join(c.root, "bench", "pins.json")
	}
	return c, nil
}

// traceFile is where a traced run writes its Chrome trace: the -trace
// file, with the workload's name added when one command runs them all,
// or a file named after the workload under -out.
func (c config) traceFile(all bool) string {
	switch {
	case c.tracePath == "":
		return filepath.Join(c.out, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
	case all:
		return strings.TrimSuffix(c.tracePath, ".json") + "-" + c.workload + ".json"
	}
	return c.tracePath
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"board_live":     boardLive,
	"cluster_tdma":   clusterTDMA,
	"farm_debug":     farmDebug,
	"campaign_sweep": campaignSweep,
}

func runOne(cfg config, all bool, spec *harness.Spec, stdout, stderr io.Writer) int {
	drive, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "gmdfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	b := newBench(cfg)
	if cfg.trace {
		b.tr = harness.NewTracer(200_000)
	}
	if err := resetPeakRSS(); err != nil {
		b.problem("reset peak RSS: %v", err)
	} else if err := drive(b); err != nil {
		b.problem("%s: %v", cfg.workload, err)
	}
	if b.tmp != "" {
		os.RemoveAll(b.tmp)
	}
	b.finish()
	b.checkPins()
	b.checkMetricSet(spec)

	res := &b.res
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "# %s seed=%d traced=%v nproc=%d gomaxprocs=%d cpu=%q\n",
		cfg.workload, cfg.seed, cfg.trace, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.CPUModel)
	for _, k := range keys {
		m := res.Metrics[k]
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf("  (n=%d", m.Samples)
			if m.Percentile > 0 {
				extra += fmt.Sprintf(", p%g", m.Percentile)
			}
			extra += ")"
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %s%s\n", k, m.Value, m.Unit, extra)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	fmt.Fprintf(stdout, "# sim_digest %s\n", res.SimDigest)
	if cfg.trace {
		path := cfg.traceFile(all)
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = b.tr.WriteChrome(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "gmdfbench: trace:", err)
		} else {
			fmt.Fprintf(stdout, "# trace %s\n", path)
		}
	}
	if path, err := res.Write(cfg.out); err != nil {
		fmt.Fprintln(stderr, "gmdfbench: result file:", err)
	} else {
		fmt.Fprintf(stdout, "# result %s\n", path)
	}
	line, err := res.Line()
	if err != nil {
		fmt.Fprintln(stderr, "gmdfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkMetricSet fails the run when the metrics it reports are not
// exactly the set BENCHMARK.json declares for this kind of run, so the
// benchmark and its declaration cannot drift apart.
func (b *bench) checkMetricSet(spec *harness.Spec) {
	want := spec.EndToEnd
	if b.cfg.trace {
		want = spec.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := b.res.Metrics[m.Name]
		switch {
		case !ok:
			b.problem("metric %s declared in BENCHMARK.json but not measured", m.Name)
		case got.Unit != m.Unit:
			b.problem("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range b.res.Metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		b.problem("metrics not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
}

// deadlineAfter is the end of the measured phase when it starts now.
func (b *bench) deadlineAfter(share float64) time.Time {
	return time.Now().Add(time.Duration(share * b.cfg.seconds * float64(time.Second)))
}
