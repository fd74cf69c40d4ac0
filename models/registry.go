package models

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"repro/internal/comdes"
	"repro/internal/metamodel"
)

// Registry: the built-in models addressable by name — the same catalogue
// the gmdf CLI offers — so the debug-farm server and the CLI build
// identical systems (and therefore byte-identical traces) from the same
// string. Each call returns a fresh, independent system; the expensive
// shared artifact is the compiled program, cached by the caller.

// Names lists the built-in model names in stable order.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var builders = map[string]func() (*comdes.System, error){
	"heating":      func() (*comdes.System, error) { return Heating(HeatingOptions{}) },
	"traffic":      TrafficLight,
	"ring":         func() (*comdes.System, error) { return TokenRing(4) },
	"dist":         Distributed,
	"priorityload": PriorityLoad,
}

// ByName builds the named built-in model.
func ByName(name string) (*comdes.System, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return b()
}

// Load resolves a built-in model name, or else reads the COMDES model XML
// file at that path: the CLIs' -model flag. A name that is neither is
// reported as ByName reports an unknown model, with the built-in names.
// The farm calls ByName, so it never opens a path a client sends.
func Load(name string) (*comdes.System, error) {
	if _, ok := builders[name]; ok {
		return ByName(name)
	}
	f, err := os.Open(name)
	if errors.Is(err, os.ErrNotExist) {
		return ByName(name)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mod, err := metamodel.ReadModelXML(comdes.Metamodel(), f)
	if err != nil {
		return nil, err
	}
	return comdes.FromModel(mod)
}
