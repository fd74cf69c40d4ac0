package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/farm"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// isoBudget is the wall time each isolated unit cost is measured for.
const isoBudget = 60 * time.Millisecond

// perUnit calls fn until isoBudget has passed and returns the mean
// nanoseconds per unit of work fn reports having done.
func perUnit(fn func() (units int, err error)) (float64, error) {
	var n int
	start := time.Now()
	for first := true; first || time.Since(start) < isoBudget; first = false {
		u, err := fn()
		if err != nil {
			return 0, err
		}
		n += u
	}
	if n == 0 {
		return 0, fmt.Errorf("no work done")
	}
	return ns(time.Since(start)) / float64(n), nil
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// isolate measures the unit costs of layers nested below the calls the
// benchmark makes, each by calling that layer's public function alone on
// inputs taken from the ladder's sessions, and attributes them: unit cost
// × the ladder's counted work, as a share of the span that contains it.
func (b *bench) isolate(lad *ladder) error {
	var events []protocol.Event
	var records []trace.Record
	for _, f := range lad.facades {
		for _, r := range f.view().sess.Trace.Records {
			if len(events) == 20_000 {
				break
			}
			events = append(events, r.Event)
			records = append(records, r)
		}
	}
	if len(events) == 0 {
		return fmt.Errorf("isolation: the ladder sessions recorded no events")
	}
	f := lad.facades[0]

	// Checkpoint layer: capture, then the operations a fork, a store and
	// a rewind pay for.
	cp, err := f.checkpoint()
	if err != nil {
		return err
	}
	raw, err := cp.Marshal()
	if err != nil {
		return err
	}
	costs := []struct {
		name, unit string
		scale      float64
		fn         func() (int, error)
	}{
		{"checkpoint.clone_us", "us", 1e3, func() (int, error) { cp.Clone(); return 1, nil }},
		{"checkpoint.apply_us", "us", 1e3, func() (int, error) { return 1, f.restore(cp) }},
		{"checkpoint.marshal_us", "us", 1e3, func() (int, error) { _, err := cp.Marshal(); return 1, err }},
		{"checkpoint.digest_us", "us", 1e3, func() (int, error) { checkpoint.DigestBytes(raw); return 1, nil }},
		{"protocol.encode_ns_per_event", "ns", 1, func() (int, error) {
			for _, ev := range events {
				if _, err := protocol.EncodeEvent(ev); err != nil {
					return 0, err
				}
			}
			return len(events), nil
		}},
		{"trace.append_ns_per_record", "ns", 1, func() (int, error) {
			t := trace.New("isolate")
			for _, ev := range events {
				t.Append(ev, ev.Time)
			}
			return len(events), nil
		}},
		{"farm.encode_ns_per_record", "ns", 1, func() (int, error) {
			batch := records[:min(len(records), 512)]
			_, err := json.Marshal(farm.ServerMsg{Stream: "events", Session: "s000001", Events: batch})
			return len(batch), err
		}},
	}
	for _, c := range costs {
		d, err := perUnit(c.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		b.set(c.name, d/c.scale, c.unit)
	}
	b.set("checkpoint.bytes", float64(len(raw)), "B")

	var wire []byte
	for _, ev := range events {
		w, err := protocol.EncodeEvent(ev)
		if err != nil {
			return err
		}
		wire = append(wire, w...)
	}
	dec, err := perUnit(func() (int, error) {
		var d protocol.Decoder
		n := 0
		for off := 0; off < len(wire); off += 4096 {
			evs, _ := d.Feed(wire[off:min(off+4096, len(wire))])
			n += len(evs)
		}
		if n != len(events) || d.Errors != 0 {
			return 0, fmt.Errorf("decoded %d of %d events (%d errors)", n, len(events), d.Errors)
		}
		return n, nil
	})
	if err != nil {
		return fmt.Errorf("protocol decode: %w", err)
	}
	b.set("protocol.decode_ns_per_event", dec, "ns")

	handle, err := b.handleCost(f, events)
	if err != nil {
		return err
	}
	b.set("core.handle_ns_per_event", handle, "ns")

	if err := b.storeCosts(cp); err != nil {
		return err
	}
	if err := b.dslCost(); err != nil {
		return err
	}
	if err := b.codegenCosts(lad); err != nil {
		return err
	}

	// Attribution of the isolated costs to the spans that contain them.
	vms := float64(lad.counts.vns) / 1e6
	poll := float64(lad.layers["engine.poll"].Total) / float64(lad.passes) / vms
	react := float64(lad.layers["engine.react"].Total) / float64(lad.passes) / vms
	evPerVms := float64(lad.counts.events) / vms
	b.set("protocol.share_of_poll", ratio(dec*evPerVms, poll), "ratio")
	b.set("engine.react_explained_share",
		ratio((b.res.Metrics["trace.append_ns_per_record"].Value+handle)*evPerVms, react), "ratio")
	return nil
}

// handleCost feeds the recorded events to a fresh GDM of the same model.
func (b *bench) handleCost(f *facade, events []protocol.Event) (float64, error) {
	sys := f.sys()
	model, err := comdes.ToModel(sys, comdes.Metamodel())
	if err != nil {
		return 0, err
	}
	gdm, err := core.Abstract(model, engine.DefaultCOMDESMapping())
	if err != nil {
		return 0, err
	}
	if err := engine.BindCOMDES(gdm); err != nil {
		return 0, err
	}
	return perUnit(func() (int, error) {
		for _, ev := range events {
			if _, err := gdm.HandleEvent(ev); err != nil {
				return 0, err
			}
		}
		return len(events), nil
	})
}

// storeCosts times the farm's content-addressed store on a store of its
// own: a put into an empty directory (serialize, hash, write) and a get
// by a fresh store instance (read, verify, decode).
func (b *bench) storeCosts(cp *checkpoint.Checkpoint) error {
	dir, err := os.MkdirTemp(b.tmpDir(), "store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var puts, gets time.Duration
	const reps = 5
	for i := range reps {
		st, err := farm.NewStore(filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			return err
		}
		start := time.Now()
		digest, _, err := st.Put(cp)
		puts += time.Since(start)
		if err != nil {
			return err
		}
		fresh, err := farm.NewStore(st.Dir())
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := fresh.Get(digest); err != nil {
			return err
		}
		gets += time.Since(start)
	}
	b.set("farm.store_put_us", ns(puts)/reps/1e3, "us")
	b.set("farm.store_get_us", ns(gets)/reps/1e3, "us")
	return nil
}

// dslCost times the scenario front end (parse, check, lint, load) on the
// committed heating scenario.
func (b *bench) dslCost() error {
	src, err := os.ReadFile(filepath.Join(b.cfg.root, dslScenario))
	if err != nil {
		return err
	}
	d, err := perUnit(func() (int, error) {
		if _, diags, err := dsl.LoadSource("heating.gmdf", string(src)); err != nil {
			return 0, fmt.Errorf("%v: %v", err, diags)
		}
		return 1, nil
	})
	if err != nil {
		return fmt.Errorf("dsl load: %w", err)
	}
	b.set("dsl.load_us", d/1e3, "us")
	return nil
}

// codegenCosts runs every unit body of the ladder's programs on a
// codegen.Machine with the session's own board as the bus, once
// interpreted and once direct-threaded, and reports ns per VM cycle. The
// threaded cost × the ladder's cycle count, over the target span's self
// time, is the VM-dispatch share of target execution.
func (b *bench) codegenCosts(lad *ladder) error {
	type body struct {
		m    *codegen.Machine
		code []codegen.Instr
		th   *codegen.Threaded
	}
	var bodies []body
	for _, f := range lad.facades {
		for _, brd := range f.view().boards {
			for _, u := range brd.Prog.Units {
				if len(u.Body) == 0 {
					continue
				}
				bodies = append(bodies, body{codegen.NewMachine(brd.Prog, u.Body, brd), u.Body, codegen.Thread(brd.Prog, u.Body)})
			}
		}
	}
	cost := func(threaded bool) (float64, error) {
		for _, x := range bodies {
			x.m.Reset(x.code)
			if threaded {
				x.m.SetThreaded(x.th)
			} else {
				x.m.SetThreaded(nil)
			}
		}
		return perUnit(func() (int, error) {
			var cycles uint64
			for _, x := range bodies {
				x.m.Reset(x.code)
				res, err := x.m.Run()
				if err != nil {
					return 0, err
				}
				cycles += res.Cycles
			}
			return int(cycles), nil
		})
	}
	interp, err := cost(false)
	if err != nil {
		return fmt.Errorf("codegen interp: %w", err)
	}
	threaded, err := cost(true)
	if err != nil {
		return fmt.Errorf("codegen threaded: %w", err)
	}
	b.set("codegen.interp_ns_per_cycle", interp, "ns")
	b.set("codegen.threaded_ns_per_cycle", threaded, "ns")
	target := float64(lad.layers["target.run"].Self) / float64(lad.passes)
	b.set("codegen.share_of_target", ratio(threaded*float64(lad.counts.cycles), target), "ratio")
	return nil
}

// tmpDir is this run's scratch directory inside the checkout.
func (b *bench) tmpDir() string {
	if b.tmp == "" {
		dir := filepath.Join(b.cfg.root, ".bench_build", "tmp")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			b.tmp, _ = os.MkdirTemp(dir, b.cfg.workload+"-")
		}
	}
	return b.tmp
}
