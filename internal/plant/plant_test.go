package plant

import (
	"testing"
	"testing/quick"
)

func TestThermalHeatsAndCools(t *testing.T) {
	p := NewThermal(15)
	for i := 0; i < 100; i++ {
		p.Step(1_000_000_000, 100) // 1 s at full power
	}
	if p.TempC <= 15 {
		t.Errorf("no heating: %g", p.TempC)
	}
	hot := p.TempC
	for i := 0; i < 1000; i++ {
		p.Step(1_000_000_000, 0)
	}
	if p.TempC >= hot {
		t.Error("no cooling")
	}
	// Long idle converges to ambient.
	if d := p.TempC - p.AmbientC; d > 0.5 {
		t.Errorf("did not settle to ambient: %g", p.TempC)
	}
}

func TestThermalPowerClamped(t *testing.T) {
	a, b := NewThermal(20), NewThermal(20)
	a.Step(1e9, 150)
	b.Step(1e9, 100)
	if a.TempC != b.TempC {
		t.Error("power not clamped high")
	}
	a2, b2 := NewThermal(20), NewThermal(20)
	a2.Step(1e9, -10)
	b2.Step(1e9, 0)
	if a2.TempC != b2.TempC {
		t.Error("power not clamped low")
	}
}

// Property: thermal model is bounded: with clamped power the temperature
// stays within [ambient-1, ambient + Gain/Loss + 1].
func TestQuickThermalBounded(t *testing.T) {
	f := func(powers []uint8) bool {
		p := NewThermal(20)
		upper := p.AmbientC + p.GainCPerS/p.LossPerS + 1
		for _, pw := range powers {
			p.Step(1e9, float64(pw%120))
			if p.TempC < p.AmbientC-1 || p.TempC > upper {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
