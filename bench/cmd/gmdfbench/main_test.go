package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/bench/harness"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = "../../.."

func buildGmdfd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gmdfd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gmdfd").CombinedOutput(); err != nil {
		t.Fatalf("build gmdfd: %v\n%s", err, out)
	}
	return bin
}

// smoke runs one workload at about 1% of its size for a fraction of a
// second: every plan item still runs, so every check still applies. It
// returns the exit code, the sim_digest and the result line.
func smoke(t *testing.T, gmdfd, out, pins, workload, trace string) (int, string, string) {
	t.Helper()
	cfg, err := parseFlags([]string{
		"-root", repoRoot, "-workload", workload, "-seed", "2010",
		"-seconds", "0.2", "-trace", trace,
		"-gmdfd", gmdfd, "-out", out, "-pins", pins,
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.scale = 0.01
	spec, err := harness.ReadSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := runOne(cfg, false, spec, &stdout, &stderr)
	var digest, last string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if d, ok := strings.CutPrefix(line, "# sim_digest "); ok {
			digest = d
		}
		last = line
	}
	if code != 0 {
		t.Logf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	return code, digest, last
}

// TestSmoke runs all four workloads twice at smoke size and requires
// identical sim_digests, then once traced (which must report the whole
// per-layer metric set and pass traced = untraced), and finally checks
// that a corrupted pin fails the run.
func TestSmoke(t *testing.T) {
	gmdfd := buildGmdfd(t)
	out := t.TempDir()
	noPins := filepath.Join(out, "no-pins.json")
	digests := map[string]string{}
	for _, w := range []string{"board_live", "cluster_tdma", "farm_debug", "campaign_sweep"} {
		var first string
		for i := range 2 {
			code, digest, _ := smoke(t, gmdfd, out, noPins, w, "0")
			if code != 0 || digest == "" {
				t.Fatalf("%s run %d: exit %d, digest %q", w, i, code, digest)
			}
			if i == 0 {
				first = digest
			} else if digest != first {
				t.Fatalf("%s: sim_digest %s then %s", w, first, digest)
			}
		}
		digests[w] = first
		if code, _, _ := smoke(t, gmdfd, out, noPins, w, "1"); code != 0 {
			t.Fatalf("%s traced: exit %d", w, code)
		}
	}

	pins := filepath.Join(out, "pins.json")
	writePins := func(digest string) {
		raw, err := json.Marshal(map[string]any{
			"seed": 2010, "scale": 0.01, "sim_digest": map[string]string{"board_live": digest},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pins, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePins(digests["board_live"])
	if code, _, _ := smoke(t, gmdfd, out, pins, "board_live", "0"); code != 0 {
		t.Fatalf("correct pin: exit %d", code)
	}
	writePins(strings.Repeat("0", 64))
	code, _, last := smoke(t, gmdfd, out, pins, "board_live", "0")
	if code == 0 || !strings.Contains(last, `"correct":false`) {
		t.Fatalf("corrupted pin: exit %d, last line %s", code, last)
	}
}

var ballast []byte

// TestPeakRSSIsPerWorkload checks that peak_rss_mb of an in-process
// workload does not include the peak of what ran before it in the same
// process, as with -workload all.
func TestPeakRSSIsPerWorkload(t *testing.T) {
	const mb = 1 << 20
	ballast = make([]byte, 128*mb)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	before, err := peakRSSMB("self")
	if err != nil {
		t.Fatal(err)
	}
	ballast = nil
	out := t.TempDir()
	code, _, last := smoke(t, "", out, filepath.Join(out, "no-pins.json"), "campaign_sweep", "0")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var res struct {
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["peak_rss_mb"].Value; got <= 0 || got > before-64 {
		t.Fatalf("peak_rss_mb %.1f MB after a %.1f MB peak before the workload", got, before)
	}
}

// TestSpeedTakesEachStepsMedian: sim_speed times each step of the plan
// cycle at its median over the cycles, so a stall in one repeat of a
// chunk does not count, and session builds count as wall time but not
// as operations.
func TestSpeedTakesEachStepsMedian(t *testing.T) {
	m := newMeter()
	for c := range 3 {
		m.cycle()
		m.step(2*time.Millisecond, 0) // session build
		chunk := time.Millisecond
		if c == 1 {
			chunk = 50 * time.Millisecond // stalled
		}
		m.op(chunk, 30_000_000)
	}
	if got := m.speed(); got != 10 {
		t.Errorf("speed = %g ns/ns, want 30 virtual ms over 3 wall ms = 10", got)
	}
	if len(m.lat) != 3 {
		t.Errorf("%d operation latencies, want the 3 chunks", len(m.lat))
	}
}
