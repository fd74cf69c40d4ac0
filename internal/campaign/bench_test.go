package campaign

// Campaign performance benchmarks. BenchmarkCampaignFork/json is the cost
// of a JSON round trip of a warm checkpoint, the serialization path a
// fork does not take: a fork restores the shared base checkpoint itself,
// which the root BenchmarkRestore measures and the perf gate pins.
// BenchmarkCampaignFleet measures whole-campaign throughput at one worker
// versus all cores (the CI scaling gate runs on multi-core).

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/models"
)

// warmHeatingCheckpoint builds the heating debugger and runs it 300 ms —
// the same deep, structurally rich state (thermostat FSM mid-cycle, live
// trace, UART state) the original fork-bench scenario used.
func warmHeatingCheckpoint(b *testing.B) *checkpoint.Checkpoint {
	b.Helper()
	sys, err := models.ByName("heating")
	if err != nil {
		b.Fatal(err)
	}
	dbg, err := repro.Debug(sys, repro.DebugConfig{
		Transport:   repro.Active,
		Environment: repro.StandardEnvironment("heating"),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := dbg.Run(300 * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	cp, err := dbg.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	return cp
}

func BenchmarkCampaignFork(b *testing.B) {
	cp := warmHeatingCheckpoint(b)

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := cp.Marshal()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := checkpoint.Decode(bytes.NewReader(buf)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCampaignFleet(b *testing.B) {
	spec := Spec{
		Model: "priorityload", Variants: 16, Seed: 2010,
		WarmNs: 5_000_000, RunNs: 10_000_000,
		ShufflePriorities: true,
		MissBudget:        -1, DropBudget: -1,
	}
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		s := spec
		s.Workers = workers
		for i := 0; i < b.N; i++ {
			agg, err := Run(s)
			if err != nil {
				b.Fatal(err)
			}
			if len(agg.Results) != s.Variants {
				b.Fatalf("want %d results, got %d", s.Variants, len(agg.Results))
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=max", func(b *testing.B) { run(b, runtime.NumCPU()) })
}
