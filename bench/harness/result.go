package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Env identifies the machine a result was measured on. Results that
// differ in any field are never compared with each other: a 1-CPU
// container and a multi-core runner measure different things.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
	GoVersion  string `json:"goVersion"`
}

// CurrentEnv describes this process's machine.
func CurrentEnv() Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// Key reports the fields that must match for two results to be compared.
func (e Env) Key() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q", e.NProc, e.GOMAXPROCS, e.CPUModel)
}

// Metric is one reported number. Samples and Percentile are set on
// timings: how many samples the value summarizes and, for a tail
// latency, which percentile it actually is.
type Metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// Result is one benchmark run, as written to its result file.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Scale     float64           `json:"scale"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// SimDigest is the SHA-256 over the workload's first plan cycle of
	// outputs, the value BENCHMARK pins compare against.
	SimDigest string `json:"simDigest"`
	// Problems lists every failed correctness check.
	Problems []string `json:"problems,omitempty"`
}

// Line is the one-line summary the benchmark prints last: exactly the
// keys correct, attempted, failed and metrics, each metric as value+unit.
func (r *Result) Line() ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(r.Metrics))
	for k, m := range r.Metrics {
		ms[k] = vu{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// Write stores the result as dir/<workload>-seed<seed>-<n>.json with the
// first unused n, so repeated runs never overwrite each other.
func (r *Result) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	kind := "e2e"
	if r.Traced {
		kind = "trace"
	}
	for n := 0; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%03d.json", r.Workload, kind, r.Seed, n))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
}

// ReadResults loads every result file in dir, sorted by file name (which
// is run order for one workload and seed).
func ReadResults(dir string) ([]*Result, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []*Result
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, &r)
	}
	return out, nil
}
