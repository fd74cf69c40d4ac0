package core

import "repro/internal/protocol"

// Test-only access for the external core_test package, which builds GDMs
// from the built-in models through engine (core cannot import it).

// RefHandleEvent runs the reference resolver of ref_test.go.
func (g *GDM) RefHandleEvent(ev protocol.Event) ([]Reaction, error) { return g.refHandleEvent(ev) }

// LastPulse returns the active pulse element per group.
func (g *GDM) LastPulse() map[string]string { return g.lastPulse }
