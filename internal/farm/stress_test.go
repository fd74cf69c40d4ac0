package farm

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSessionIsolation is the farm's core concurrency claim
// under -race: N goroutine clients interleave sessions on one server —
// half debug the heating model with a breakpoint, half free-run the
// token ring — and isolation holds:
//
//   - every heating session halts at the same virtual instant with the
//     same trace prefix (determinism is per-session, untouched by load);
//   - no ring session ever pauses or records a break event (one
//     session's breakpoint never halts another);
//   - the shared compiled programs never change under any of it.
func TestConcurrentSessionIsolation(t *testing.T) {
	_, seed := startServer(t, Options{})

	// Reference heating session: breakpoint, run, note the halt instant
	// and trace.
	ref, err := seed.Create(CreateParams{Model: "heating"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Break(ref.Session, BreakParams{ID: "iso", Machine: "heater.thermostat", State: "Heating"}); err != nil {
		t.Fatal(err)
	}
	refRun, err := seed.RunFor(ref.Session, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !refRun.Paused {
		t.Fatal("reference heating session did not hit its breakpoint")
	}
	refTrace, err := seed.TraceStable(ref.Session)
	if err != nil {
		t.Fatal(err)
	}
	refRing := inProcessTrace(t, "ring", 500)

	const clients = 12
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errc <- func() error {
				cl, err := Dial(seedAddr)
				if err != nil {
					return err
				}
				defer cl.Close()
				if i%2 == 0 {
					// Heating with a breakpoint: must reproduce the reference
					// halt exactly, regardless of the other clients.
					created, err := cl.Create(CreateParams{Model: "heating"})
					if err != nil {
						return err
					}
					if _, err := cl.Attach(created.Session); err != nil {
						return err
					}
					if _, err := cl.Break(created.Session, BreakParams{ID: "iso", Machine: "heater.thermostat", State: "Heating"}); err != nil {
						return err
					}
					run, err := cl.RunFor(created.Session, 500)
					if err != nil {
						return err
					}
					if !run.Paused || run.NowNs != refRun.NowNs {
						return fmt.Errorf("client %d: halted=%v at %d ns, reference halted at %d ns", i, run.Paused, run.NowNs, refRun.NowNs)
					}
					tr, err := cl.TraceStable(created.Session)
					if err != nil {
						return err
					}
					if tr.Stable != refTrace.Stable {
						return fmt.Errorf("client %d: heating trace diverged under load", i)
					}
					_, err = cl.Detach(created.Session, false)
					return err
				}
				// Ring, no breakpoints: must never pause and never record a
				// break event, no matter what the heating sessions do.
				created, err := cl.Create(CreateParams{Model: "ring"})
				if err != nil {
					return err
				}
				run, err := cl.RunFor(created.Session, 500)
				if err != nil {
					return err
				}
				if run.Paused {
					return fmt.Errorf("client %d: ring session paused — foreign breakpoint leaked", i)
				}
				tr, err := cl.TraceStable(created.Session)
				if err != nil {
					return err
				}
				if tr.Stable != refRing {
					return fmt.Errorf("client %d: ring trace diverged under load", i)
				}
				j, err := cl.Journal(created.Session)
				if err != nil {
					return err
				}
				for _, e := range j.Entries {
					if e.Method == "break" {
						return fmt.Errorf("client %d: ring journal has a break request", i)
					}
				}
				_, err = cl.Detach(created.Session, false)
				return err
			}()
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
}

// seedAddr is set by startServer for goroutines that need to dial fresh
// connections. Guarded by test serialization (startServer per test).
var seedAddr string

// TestDetachResumeUnderLoad: sessions detached mid-run while the server
// is busy resume in a fresh server process-equivalent (new Server, shared
// store dir) and reproduce the remaining trace byte-for-byte.
func TestDetachResumeUnderLoad(t *testing.T) {
	dir := t.TempDir()
	_, cl := startServer(t, Options{StoreDir: dir})

	full := inProcessTrace(t, "heating", 400)

	const n = 6
	type handoff struct {
		digest string
	}
	var wg sync.WaitGroup
	hand := make([]handoff, n)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errc <- func() error {
				c, err := Dial(seedAddr)
				if err != nil {
					return err
				}
				defer c.Close()
				created, err := c.Create(CreateParams{Model: "heating"})
				if err != nil {
					return err
				}
				if _, err := c.RunFor(created.Session, 200); err != nil {
					return err
				}
				det, err := c.Detach(created.Session, true)
				if err != nil {
					return err
				}
				hand[i].digest = det.Digest
				return nil
			}()
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	// All six checkpoints address identical state — identical digests.
	for i := 1; i < n; i++ {
		if hand[i].digest != hand[0].digest {
			t.Fatalf("checkpoint digests diverged under load: %s vs %s", hand[i].digest[:12], hand[0].digest[:12])
		}
	}

	// Resume each in a fresh server sharing the store dir.
	_, cl2 := startServer(t, Options{StoreDir: dir})
	for i := 0; i < n; i++ {
		created, err := cl2.Create(CreateParams{Model: "heating", Checkpoint: hand[i].digest})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl2.RunFor(created.Session, 200); err != nil {
			t.Fatal(err)
		}
		tr, err := cl2.TraceStable(created.Session)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Stable != full {
			t.Fatalf("resumed session %d: trace differs from the uninterrupted run", i)
		}
		if _, err := cl2.Detach(created.Session, false); err != nil {
			t.Fatal(err)
		}
	}
	_ = cl
}

// TestFarmLoadSmoke is the bench-smoke load shape: many short sessions
// across concurrent clients, reporting sessions/sec and attach-latency
// percentiles from the server's own histogram.
func TestFarmLoadSmoke(t *testing.T) {
	sessions, clients := 160, 16
	if testing.Short() {
		sessions, clients = 32, 8
	}
	srv, _ := startServer(t, Options{})

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	per := sessions / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errc <- func() error {
				cl, err := Dial(seedAddr)
				if err != nil {
					return err
				}
				defer cl.Close()
				model := "heating"
				if c%2 == 1 {
					model = "ring"
				}
				for s := 0; s < per; s++ {
					created, err := cl.Create(CreateParams{Model: model})
					if err != nil {
						return err
					}
					if _, err := cl.Attach(created.Session); err != nil {
						return err
					}
					if _, err := cl.RunFor(created.Session, 20); err != nil {
						return err
					}
					if _, err := cl.Detach(created.Session, false); err != nil {
						return err
					}
				}
				return nil
			}()
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	st := srv.StatsSnapshot()
	if int(st.SessionsCreated) != per*clients || st.ActiveSessions != 0 {
		t.Fatalf("stats after load: %+v", st)
	}
	if st.AttachCount != uint64(per*clients) {
		t.Fatalf("attach histogram has %d samples, want %d", st.AttachCount, per*clients)
	}
	t.Logf("farm load smoke: %d sessions / %d clients in %v = %.1f sessions/sec; attach p50=%s p99=%s max=%s",
		per*clients, clients, elapsed.Round(time.Millisecond),
		float64(per*clients)/elapsed.Seconds(),
		time.Duration(st.AttachP50Ns), time.Duration(st.AttachP99Ns), time.Duration(st.AttachMaxNs))
}

// BenchmarkFarmSession measures the full create+attach+run+detach round
// trip of one short session over TCP.
func BenchmarkFarmSession(b *testing.B) {
	_, cl := startServer(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		created, err := cl.Create(CreateParams{Model: "ring"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Attach(created.Session); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.RunFor(created.Session, 10); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Detach(created.Session, false); err != nil {
			b.Fatal(err)
		}
	}
}
