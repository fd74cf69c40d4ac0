package repro

import (
	"repro/internal/dtm"
	"repro/internal/plant"
	"repro/internal/target"
	"repro/internal/value"
)

// Standard environments and cluster wiring for the built-in models
// (models.ByName). These live here rather than in the models package so
// models stays free of target imports — and so the gmdf CLI and the farm
// server share one definition: identical systems plus identical
// environments plus identical bus schedules is what makes a remote-driven
// session's trace byte-identical to an in-process run of the same model.

// StandardEnvironment returns a fresh environment hook for the named
// built-in model, nil when the model needs none. The closure owns any
// plant state (the heating model's thermal room), so every session gets
// an independent, deterministic environment — two sessions of the same
// model never share a plant.
func StandardEnvironment(name string) func(now uint64, b *target.Board) {
	switch name {
	case "heating":
		room := plant.NewThermal(15)
		var last uint64
		return func(now uint64, b *target.Board) {
			dt := now - last
			last = now
			power := 0.0
			if p, err := b.ReadOutput("heater", "power"); err == nil {
				power = p.Float()
			}
			_ = b.WriteInput("heater", "temp", value.F(room.Step(dt, power)))
			_ = b.WriteInput("heater", "mode", value.I(2))
		}
	case "traffic":
		return func(now uint64, b *target.Board) {
			t := float64(now%12_000_000_000) / 1e9
			_ = b.WriteInput("signal", "t", value.F(t))
		}
	}
	return nil
}

// StatefulEnvironment reports whether the named model's standard
// environment carries state of its own outside the checkpoint (the
// heating plant's thermal room lives in the closure, not on the board).
// Checkpoint-fork campaigns refuse such models: a forked variant would
// resume against a plant that never saw the warm-up; models with stateful
// environments need the in-process recorder instead.
func StatefulEnvironment(name string) bool { return name == "heating" }

// StandardBoardConfig is the single-board configuration for the named
// built-in model. Most models run on the default board (zero Config); the
// priorityload timing experiment needs the 1 MHz preemptive board its
// hog/lowly interference story is calibrated for.
func StandardBoardConfig(name string) target.Config {
	if name == "priorityload" {
		return target.Config{CPUHz: 1_000_000, Sched: dtm.FixedPriority, Baud: 2_000_000}
	}
	return target.Config{}
}

// StandardBus is the fixed TDMA schedule the gmdf CLI and the farm server
// put under a placed multi-node model: 100 µs slot per node in placement
// order, 50 µs gaps, 20 µs release jitter, 10% seeded loss. Fixed
// parameters keep every run of the same model byte-deterministic, which
// the cross-process replay diffs rely on.
func StandardBus(nodes []string) *dtm.BusSchedule {
	bus := &dtm.BusSchedule{GapNs: 50_000, JitterNs: 20_000, LossPerMille: 100, Seed: 2010}
	for _, node := range nodes {
		bus.Slots = append(bus.Slots, dtm.BusSlot{Owner: node, LenNs: 100_000})
	}
	return bus
}

// StandardClusterConfig is the cluster-side configuration matching
// StandardBus (100 µs propagation, 2 Mbaud boards): what a scenario with
// no board or bus declaration, and so every built-in multi-node model,
// runs on.
func StandardClusterConfig(nodes []string,
	// Deprecated: every cluster runs on the one serial kernel; ignored.
	_ target.ExecMode,
) target.ClusterConfig {
	return target.ClusterConfig{
		LatencyNs: 100_000,
		Bus:       StandardBus(nodes),
		Board:     target.Config{Baud: 2_000_000},
	}
}
