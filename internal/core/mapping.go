// Package core implements the paper's primary contribution: the Graphical
// Debugger Model (GDM) and the abstraction procedure that derives it from
// an arbitrary MOF-conformant input model.
//
// The pieces map one-to-one onto the paper's Section II:
//
//   - Mapping (this file) is the user-specified pairing of input
//     meta-model elements with GDM graphical patterns — exactly the
//     pairing list manipulated through the abstraction guide of Fig. 4
//     (Rectangle, Triangle, Circle, Arrow, Line).
//   - Abstract (abstract.go) is the "abstraction" procedure of Fig. 2:
//     it walks the input model reflectively and produces a GDM.
//   - GDM (gdm.go) is the event-driven finite state machine of Fig. 3:
//     normally waiting, it listens for commands from the executing code
//     and performs the corresponding reactions on the graphical scene.
package core

import (
	"fmt"
	"sort"

	"repro/internal/graphics"
	"repro/internal/metamodel"
)

// Patterns is the GDM pattern vocabulary offered by the abstraction guide
// (paper Fig. 4).
var Patterns = []string{"Rectangle", "Triangle", "Circle", "Arrow", "Line", "Text"}

// IsConnector reports whether the pattern is drawn between two elements.
func IsConnector(pattern string) bool { return pattern == "Arrow" || pattern == "Line" }

// EndpointResolver computes the model element ids an Arrow/Line connects.
// Resolvers keep the abstraction engine independent of any particular
// modelling language: transition-like classes resolve through references,
// dataflow connections through endpoint attributes, and domain packages
// can register custom resolvers.
type EndpointResolver func(o *metamodel.Object) (from, to string, err error)

// ResolveRefs builds a resolver reading two single-valued references
// (e.g. a Transition's "from"/"to").
func ResolveRefs(fromRef, toRef string) EndpointResolver {
	return func(o *metamodel.Object) (string, string, error) {
		f := o.Ref(fromRef)
		t := o.Ref(toRef)
		if f == nil || t == nil {
			return "", "", fmt.Errorf("core: %s: unresolved %s/%s references", o.ID(), fromRef, toRef)
		}
		return f.ID(), t.ID(), nil
	}
}

// Rule is one pairing in the abstraction guide: instances of MetaClass
// (including subclasses) are displayed as Pattern.
type Rule struct {
	MetaClass string
	Pattern   string
	// LabelAttr names the attribute used as the element's label
	// ("name" when empty).
	LabelAttr string
	// Resolve supplies connector endpoints; required for Arrow/Line rules.
	Resolve EndpointResolver
}

// Mapping is the ordered pairing list of the abstraction guide. Rules are
// matched most-specific-first: an exact class match beats a superclass
// match; among superclass matches the earliest rule wins.
type Mapping struct {
	rules []Rule
}

// NewMapping creates an empty pairing list.
func NewMapping() *Mapping { return &Mapping{} }

// Pair appends a rule, validating the pattern name and connector
// requirements — the "pairing" action of the Fig. 4 guide.
func (m *Mapping) Pair(rule Rule) error {
	valid := false
	for _, p := range Patterns {
		if p == rule.Pattern {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("core: unknown GDM pattern %q (have %v)", rule.Pattern, Patterns)
	}
	if rule.MetaClass == "" {
		return fmt.Errorf("core: rule with empty meta-class")
	}
	if IsConnector(rule.Pattern) && rule.Resolve == nil {
		return fmt.Errorf("core: connector pattern %s for %s needs an endpoint resolver", rule.Pattern, rule.MetaClass)
	}
	for _, r := range m.rules {
		if r.MetaClass == rule.MetaClass {
			return fmt.Errorf("core: class %q already paired with %s", rule.MetaClass, r.Pattern)
		}
	}
	m.rules = append(m.rules, rule)
	return nil
}

// MustPair is Pair that panics; for static mapping tables.
func (m *Mapping) MustPair(rule Rule) *Mapping {
	if err := m.Pair(rule); err != nil {
		panic(err)
	}
	return m
}

// Len returns the number of pairings.
func (m *Mapping) Len() int { return len(m.rules) }

// Match finds the rule applying to an object: exact class first, then the
// earliest rule whose class the object specialises.
func (m *Mapping) Match(o *metamodel.Object) (Rule, bool) {
	cls := o.Class()
	for _, r := range m.rules {
		if r.MetaClass == cls.Name {
			return r, true
		}
	}
	for _, r := range m.rules {
		if cls.IsKindOf(r.MetaClass) {
			return r, true
		}
	}
	return Rule{}, false
}

// PatternShape converts a pattern name to its scene shape kind.
func PatternShape(pattern string) (graphics.ShapeKind, error) {
	return graphics.ParseShapeKind(pattern)
}

// GuideView renders the state of the abstraction guide as the three-panel
// ASCII layout of Fig. 4: meta-model element list, existing pairing list,
// and GDM pattern options.
func GuideView(meta *metamodel.Metamodel, m *Mapping) string {
	var classes []string
	for _, c := range meta.Classes() {
		classes = append(classes, c.Name)
	}
	sort.Strings(classes)
	paired := map[string]string{}
	for _, r := range m.rules {
		paired[r.MetaClass] = r.Pattern
	}
	out := "+--- Meta-model elements ---+--- Existing pairing ----+--- GDM patterns ---+\n"
	rows := len(classes)
	if rows < len(Patterns) {
		rows = len(Patterns)
	}
	for i := 0; i < rows; i++ {
		cls, pair, pat := "", "", ""
		if i < len(classes) {
			cls = classes[i]
			if p, ok := paired[cls]; ok {
				pair = cls + " -> " + p
			}
		}
		if i < len(Patterns) {
			pat = "( ) " + Patterns[i]
		}
		out += fmt.Sprintf("| %-25s | %-23s | %-18s |\n", trunc(cls, 25), trunc(pair, 23), pat)
	}
	out += "+---------------------------+-------------------------+--------------------+\n"
	out += "                     [ ABSTRACTION FINISHED ]\n"
	return out
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
