package trace_test

// Byte pins of real session traces: the JSON (checkpoint and wire form),
// JSONL and stable-text renderings of a heating board run and a 3-node
// token ring, recorded from the flat []Record storage the chunked store
// replaced. Any change to how records are stored, iterated or encoded
// that moves a byte fails here.
//
// Regenerate only after an intended change to trace output with:
//
//	go test ./internal/trace -run TestTracePins -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/trace"
	"repro/models"
)

var update = flag.Bool("update", false, "rewrite the trace byte pins")

func pinHeating(t *testing.T) *trace.Trace {
	t.Helper()
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := repro.Debug(sys, repro.DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.RunNs(500_000_000); err != nil {
		t.Fatal(err)
	}
	return dbg.Session.Trace
}

func pinRing(t *testing.T) *trace.Trace {
	t.Helper()
	sys, err := models.RingCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := repro.DebugCluster(sys, repro.ClusterDebugConfig{Cluster: repro.StandardClusterConfig(sys.Nodes(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.RunNs(200_000_000); err != nil {
		t.Fatal(err)
	}
	return dbg.Session.Trace
}

// renderings returns the three byte forms of a trace, keyed by file suffix.
func renderings(t *testing.T, tr *trace.Trace) map[string][]byte {
	t.Helper()
	js, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var jl bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		".json":   js,
		".jsonl":  jl.Bytes(),
		".stable": []byte(tr.FormatStable()),
	}
}

func TestTracePins(t *testing.T) {
	for _, pin := range []struct {
		name   string
		build  func(*testing.T) *trace.Trace
		minLen int
	}{
		{"heating_500ms", pinHeating, 100},
		// Long enough to cross a storage chunk boundary.
		{"ring3_200ms", pinRing, 1025},
	} {
		t.Run(pin.name, func(t *testing.T) {
			tr := pin.build(t)
			if tr.Len() < pin.minLen {
				t.Fatalf("%d records, want at least %d", tr.Len(), pin.minLen)
			}
			for ext, got := range renderings(t, tr) {
				path := filepath.Join("testdata", pin.name+ext)
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: %d bytes differ from the %d pinned", path, len(got), len(want))
				}
			}
			// A decoded copy renders the same bytes again.
			js, _ := json.Marshal(tr)
			var back trace.Trace
			if err := json.Unmarshal(js, &back); err != nil {
				t.Fatal(err)
			}
			for ext, got := range renderings(t, &back) {
				if want := renderings(t, tr)[ext]; !bytes.Equal(got, want) {
					t.Errorf("%s after a JSON round trip: bytes differ", ext)
				}
			}
		})
	}
}
