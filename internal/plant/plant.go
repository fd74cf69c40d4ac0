// Package plant provides the simulated physical environment that closes
// the control loop around the embedded targets in the examples and
// experiments — the "real operational environment" the paper insists a
// model debugger must exercise (as opposed to pure simulation). The one
// plant is Thermal, the heated room of the standard heating environment.
//
// The model uses forward-Euler integration over virtual-time steps and is
// deterministic for a given input sequence.
package plant

import "math"

// Thermal is a first-order thermal process: a heated room with Newtonian
// losses to ambient. Power is a percentage (0..100).
type Thermal struct {
	TempC     float64 // current temperature
	AmbientC  float64 // environment temperature
	GainCPerS float64 // heating rate at 100% power, °C/s
	LossPerS  float64 // fractional loss rate toward ambient, 1/s
}

// NewThermal creates a room at ambient 15 °C with typical small-plant
// coefficients.
func NewThermal(startC float64) *Thermal {
	return &Thermal{TempC: startC, AmbientC: 15, GainCPerS: 0.8, LossPerS: 0.08}
}

// Step advances the model by dt nanoseconds under the given power (0..100)
// and returns the new temperature.
func (p *Thermal) Step(dtNs uint64, powerPct float64) float64 {
	dt := float64(dtNs) / 1e9
	powerPct = math.Max(0, math.Min(100, powerPct))
	p.TempC += dt * (p.GainCPerS*powerPct/100 - p.LossPerS*(p.TempC-p.AmbientC))
	return p.TempC
}
