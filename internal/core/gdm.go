package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graphics"
	"repro/internal/protocol"
)

// Element is one graphical debugger model element: the visual counterpart
// of exactly one input model element, displayed using the pattern the
// abstraction guide paired with its meta-class.
type Element struct {
	ID          string `json:"id"`          // == source model element id
	SourceClass string `json:"sourceClass"` // input meta-class
	Pattern     string `json:"pattern"`
	Label       string `json:"label"`
	Group       string `json:"group,omitempty"` // container element id (exclusivity scope)
	From        string `json:"from,omitempty"`  // connector endpoints (element ids)
	To          string `json:"to,omitempty"`
	Initial     bool   `json:"initial,omitempty"` // highlighted before any event
}

// ReactionKind enumerates what a command does to the model view — the
// "specific actions to be performed on the model in response to events
// coming from the system under test (e.g. highlighting a GDM element)".
type ReactionKind uint8

// Reaction kinds.
const (
	ReactNone               ReactionKind = iota
	ReactHighlight                       // switch the element's highlight on
	ReactHighlightExclusive              // highlight the element, clearing its Group siblings
	ReactBadge                           // attach the event's value as a badge
	ReactPulse                           // highlight; cleared when the next pulse in the Group fires
)

// String names the reaction.
func (r ReactionKind) String() string {
	switch r {
	case ReactHighlight:
		return "Highlight"
	case ReactHighlightExclusive:
		return "HighlightExclusive"
	case ReactBadge:
		return "Badge"
	case ReactPulse:
		return "Pulse"
	default:
		return "None"
	}
}

// Binding associates a command (event) with a reaction — one row of the
// command-setting interface (Fig. 6 step 4). The element a command acts on
// is found either by expanding KeyTemplate (placeholders: $source, $arg1,
// $arg2, $sourceHead, $sourceTail) or, for ArrowMatch bindings, by looking
// up the connector whose endpoints match the expanded FromKey/ToKey.
type Binding struct {
	Name     string             `json:"name"`
	Event    protocol.EventType `json:"event"`
	SourceEq string             `json:"sourceEq,omitempty"` // filter on Event.Source ("" = any)

	KeyTemplate string `json:"keyTemplate,omitempty"`
	ArrowMatch  bool   `json:"arrowMatch,omitempty"`
	FromKey     string `json:"fromKey,omitempty"`
	ToKey       string `json:"toKey,omitempty"`

	Reaction ReactionKind `json:"reaction"`
}

// State is the GDM engine state per the Fig. 3 meta-model: the debugger
// model is "normally in a waiting state, listening for commands and
// performing the corresponding reactions".
type State uint8

// GDM engine states.
const (
	Waiting State = iota
	Reacting
	Halted
)

// String names the engine state.
func (s State) String() string {
	switch s {
	case Waiting:
		return "Waiting"
	case Reacting:
		return "Reacting"
	case Halted:
		return "Halted"
	default:
		return fmt.Sprintf("State(%d)", s)
	}
}

// GDM is the Graphical Debugger Model: elements, command bindings, the
// rendered scene and the event-driven state machine animating it.
type GDM struct {
	Name     string
	elements []*Element
	index    map[string]*Element
	bindings []Binding

	scene *graphics.Scene
	state State

	// lastPulse tracks the active pulse element per group so the next
	// pulse clears it.
	lastPulse map[string]string

	// table memoises binding resolution; nil until the first HandleEvent
	// after AddElement, Bind or BuildScene.
	table *dispatch
	// applied backs the slice HandleEvent returns.
	applied []Reaction

	// Stats.
	Commands  uint64 // events handled
	Reactions uint64 // reactions applied
	Unbound   uint64 // events with no matching binding
}

// NewGDM creates an empty debugger model.
func NewGDM(name string) *GDM {
	return &GDM{Name: name, index: map[string]*Element{}, lastPulse: map[string]string{}}
}

// AddElement inserts an element; duplicate ids are an error.
func (g *GDM) AddElement(e *Element) error {
	if e.ID == "" {
		return fmt.Errorf("core: element with empty id")
	}
	if _, dup := g.index[e.ID]; dup {
		return fmt.Errorf("core: duplicate element %q", e.ID)
	}
	g.elements = append(g.elements, e)
	g.index[e.ID] = e
	g.table = nil
	return nil
}

// Element returns the element with the given id, or nil.
func (g *GDM) Element(id string) *Element { return g.index[id] }

// Elements returns the elements in creation order.
func (g *GDM) Elements() []*Element { return g.elements }

// Bind appends a command binding.
func (g *GDM) Bind(b Binding) error {
	if b.Event == protocol.EvInvalid {
		return fmt.Errorf("core: binding %q with no event type", b.Name)
	}
	if b.Reaction == ReactNone {
		return fmt.Errorf("core: binding %q with no reaction", b.Name)
	}
	if !b.ArrowMatch && b.KeyTemplate == "" {
		return fmt.Errorf("core: binding %q needs a key template or arrow match", b.Name)
	}
	g.bindings = append(g.bindings, b)
	g.table = nil
	return nil
}

// Bindings returns the command bindings.
func (g *GDM) Bindings() []Binding { return append([]Binding(nil), g.bindings...) }

// State returns the engine state.
func (g *GDM) State() State { return g.state }

// SetHalted marks the GDM paused (breakpoint hit); events are still
// accepted (the replay path), but the state reads Halted.
func (g *GDM) SetHalted(h bool) {
	if h {
		g.state = Halted
	} else {
		g.state = Waiting
	}
}

// Scene returns the rendered scene (BuildScene must have run).
func (g *GDM) Scene() *graphics.Scene { return g.scene }

// expand substitutes event fields into a key template.
func expand(tmpl string, ev protocol.Event) string {
	head, tail := ev.Source, ev.Source
	if i := lastDot(ev.Source); i >= 0 {
		head, tail = ev.Source[:i], ev.Source[i+1:]
	}
	out := make([]byte, 0, len(tmpl)+16)
	for i := 0; i < len(tmpl); {
		if tmpl[i] != '$' {
			out = append(out, tmpl[i])
			i++
			continue
		}
		rest := tmpl[i:]
		switch {
		case hasPrefix(rest, "$sourceHead"):
			out = append(out, head...)
			i += len("$sourceHead")
		case hasPrefix(rest, "$sourceTail"):
			out = append(out, tail...)
			i += len("$sourceTail")
		case hasPrefix(rest, "$source"):
			out = append(out, ev.Source...)
			i += len("$source")
		case hasPrefix(rest, "$arg1"):
			out = append(out, ev.Arg1...)
			i += len("$arg1")
		case hasPrefix(rest, "$arg2"):
			out = append(out, ev.Arg2...)
			i += len("$arg2")
		default:
			out = append(out, tmpl[i])
			i++
		}
	}
	return string(out)
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// Reaction describes one applied reaction (for traces and tests).
type Reaction struct {
	Binding string
	Element string
	Kind    ReactionKind
}

// member is an element with its scene shape (nil when the element has
// none).
type member struct {
	el    *Element
	shape *graphics.Shape
}

// route is one binding an event key resolved to: the reaction it
// reports, the element it acts on and, for ReactHighlightExclusive, the
// element's whole group, itself included, in element order.
type route struct {
	member
	reaction Reaction
	group    []member
}

// routeKey holds the event fields a binding's element can depend on:
// templates read only $source (and its head and tail), $arg1 and $arg2,
// and SourceEq filters on the source. Fields no binding of the event
// type reads are left empty, so events differing only there share a key.
type routeKey struct {
	typ                protocol.EventType
	source, arg1, arg2 string
}

// keyField flags mark the event fields bindings of one type read.
const (
	keySource uint8 = 1 << iota
	keyArg1
	keyArg2
)

// maxRoutes bounds the dispatch table. A model's event vocabulary is far
// smaller; a stream with more distinct keys still dispatches correctly,
// the table just starts over when it is full, so a hostile farm stream
// cannot grow it without bound.
const maxRoutes = 4096

// dispatch is the memoised form of binding resolution: per event key,
// the bindings that match and what they act on. It is built from the
// elements, bindings and scene as they are at the first HandleEvent after
// AddElement, Bind or BuildScene, each of which drops it.
type dispatch struct {
	fields [256]uint8 // per event type, the keyField flags its bindings read
	routes map[routeKey][]route
	groups map[string][]member
}

// dispatchTable returns the current table, building it if it was dropped.
func (g *GDM) dispatchTable() *dispatch {
	if g.table != nil {
		return g.table
	}
	t := &dispatch{routes: map[routeKey][]route{}, groups: map[string][]member{}}
	for _, b := range g.bindings {
		var f uint8
		if b.SourceEq != "" {
			f |= keySource
		}
		for _, tmpl := range []string{b.KeyTemplate, b.FromKey, b.ToKey} {
			if strings.Contains(tmpl, "$source") {
				f |= keySource
			}
			if strings.Contains(tmpl, "$arg1") {
				f |= keyArg1
			}
			if strings.Contains(tmpl, "$arg2") {
				f |= keyArg2
			}
		}
		t.fields[b.Event] |= f
	}
	for _, el := range g.elements {
		t.groups[el.Group] = append(t.groups[el.Group], member{el: el, shape: g.scene.Get(el.ID)})
	}
	g.table = t
	return t
}

// routes returns the bindings ev resolves to, in binding order. A key
// seen before costs one map lookup; a new key is resolved by expanding
// the templates once.
func (g *GDM) routes(ev protocol.Event) []route {
	t := g.dispatchTable()
	f := t.fields[ev.Type]
	k := routeKey{typ: ev.Type}
	if f&keySource != 0 {
		k.source = ev.Source
	}
	if f&keyArg1 != 0 {
		k.arg1 = ev.Arg1
	}
	if f&keyArg2 != 0 {
		k.arg2 = ev.Arg2
	}
	if rs, ok := t.routes[k]; ok {
		return rs
	}
	var rs []route
	for i := range g.bindings {
		b := &g.bindings[i]
		if b.Event != ev.Type {
			continue
		}
		if b.SourceEq != "" && b.SourceEq != ev.Source {
			continue
		}
		el := g.resolveElement(*b, ev)
		if el == nil {
			continue
		}
		r := route{
			member:   member{el: el, shape: g.scene.Get(el.ID)},
			reaction: Reaction{Binding: b.Name, Element: el.ID, Kind: b.Reaction},
		}
		if b.Reaction == ReactHighlightExclusive {
			r.group = t.groups[el.Group]
		}
		rs = append(rs, r)
	}
	if len(t.routes) >= maxRoutes {
		clear(t.routes)
	}
	t.routes[k] = rs
	return rs
}

// HandleEvent runs the Fig. 3 state machine for one incoming command:
// Waiting -> Reacting -> Waiting, applying every matching binding to the
// scene. Unmatched events are counted but not an error (the GDM ignores
// commands it was not configured to visualise).
//
// Which bindings match, and which element and shape each acts on, is
// resolved once per distinct event key and memoised (see dispatch), so a
// repeated event costs a lookup and allocates nothing. The returned slice
// aliases a buffer the GDM reuses: it is valid until the next
// HandleEvent, so a caller that keeps reactions longer must copy them.
func (g *GDM) HandleEvent(ev protocol.Event) ([]Reaction, error) {
	if g.scene == nil {
		return nil, fmt.Errorf("core: GDM %s has no scene (call BuildScene)", g.Name)
	}
	prev := g.state
	g.state = Reacting
	g.Commands++

	rs := g.routes(ev)
	applied := g.applied[:0]
	var err error
	for i := range rs {
		if err = g.apply(&rs[i], ev); err != nil {
			break
		}
		applied = append(applied, rs[i].reaction)
		g.Reactions++
	}
	g.applied = applied
	g.state = prev
	if len(applied) == 0 {
		if err == nil {
			g.Unbound++
		}
		return nil, err
	}
	return applied, err
}

func (g *GDM) resolveElement(b Binding, ev protocol.Event) *Element {
	if b.ArrowMatch {
		from := expand(b.FromKey, ev)
		to := expand(b.ToKey, ev)
		for _, el := range g.elements {
			if IsConnector(el.Pattern) && el.From == from && el.To == to {
				return el
			}
		}
		return nil
	}
	return g.index[expand(b.KeyTemplate, ev)]
}

// highlight sets a shape's highlight flag. An element with no shape is
// left to the scene, which reports it.
func (g *GDM) highlight(id string, sh *graphics.Shape, on bool) error {
	if sh == nil {
		return g.scene.SetHighlight(id, on)
	}
	sh.Highlight = on
	return nil
}

func (g *GDM) apply(r *route, ev protocol.Event) error {
	el := r.el
	switch r.reaction.Kind {
	case ReactHighlight:
		return g.highlight(el.ID, r.shape, true)
	case ReactHighlightExclusive:
		for _, m := range r.group {
			if m.el != el {
				if err := g.highlight(m.el.ID, m.shape, false); err != nil {
					return err
				}
			}
		}
		return g.highlight(el.ID, r.shape, true)
	case ReactBadge:
		badge := ev.Arg2
		if badge == "" {
			badge = formatBadge(ev.Value)
		}
		if r.shape == nil {
			return g.scene.SetBadge(el.ID, badge)
		}
		r.shape.Badge = badge
		return nil
	case ReactPulse:
		if prev := g.lastPulse[el.Group]; prev != "" && prev != el.ID {
			if err := g.scene.SetHighlight(prev, false); err != nil {
				return err
			}
		}
		g.lastPulse[el.Group] = el.ID
		return g.highlight(el.ID, r.shape, true)
	}
	return fmt.Errorf("core: binding %s: unknown reaction", r.reaction.Binding)
}

// formatBadge renders a numeric badge exactly as fmt's %g verb does
// (TestFormatBadgeMatchesPrintf), without going through fmt. Integral
// values below 1e6 in magnitude — counters, states, most badges — print
// as plain integers under %g, so they skip the shortest-float search.
func formatBadge(v float64) string {
	if i := int64(v); float64(i) == v && i > -1e6 && i < 1e6 && (i != 0 || !math.Signbit(v)) {
		return strconv.FormatInt(i, 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ResetAnimation rewinds the GDM's dynamic state to a freshly built
// scene: highlights and badges cleared, initial elements re-highlighted,
// pulse tracking and the reaction counters zeroed. The checkpoint
// subsystem calls it before re-projecting a restored trace so the
// animated view matches the rewound instant instead of the abandoned
// future.
func (g *GDM) ResetAnimation() {
	if g.scene != nil {
		g.scene.ClearDynamic()
		for _, el := range g.elements {
			if el.Initial && !IsConnector(el.Pattern) {
				_ = g.scene.SetHighlight(el.ID, true)
			}
		}
	}
	g.lastPulse = map[string]string{}
	g.state = Waiting
	g.Commands, g.Reactions, g.Unbound = 0, 0, 0
}

// HighlightedElements returns the ids of highlighted scene shapes.
func (g *GDM) HighlightedElements() []string {
	if g.scene == nil {
		return nil
	}
	return g.scene.Highlighted()
}

// ---- persistence (the "initial GDM file" of Fig. 6 step 4) ----

type gdmFile struct {
	Name     string     `json:"name"`
	Elements []*Element `json:"elements"`
	Bindings []Binding  `json:"bindings"`
}

// MarshalJSON serializes the GDM (elements + bindings; the scene is
// rebuilt on load).
func (g *GDM) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(gdmFile{Name: g.Name, Elements: g.elements, Bindings: g.bindings}, "", "  ")
}

// LoadGDM reconstructs a GDM from its JSON form and rebuilds the scene.
func LoadGDM(data []byte) (*GDM, error) {
	var f gdmFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("core: gdm decode: %w", err)
	}
	g := NewGDM(f.Name)
	for _, e := range f.Elements {
		if err := g.AddElement(e); err != nil {
			return nil, err
		}
	}
	g.bindings = f.Bindings
	if err := g.BuildScene(); err != nil {
		return nil, err
	}
	return g, nil
}

// ---- scene construction ----

// BuildScene lays out the elements and produces the drawable scene:
// boxes are arranged by a layered layout over the connector graph
// (isolated boxes fall back to a grid strip below), connectors attach to
// box borders, and initial elements start highlighted.
func (g *GDM) BuildScene() error {
	sc := graphics.NewScene(400, 300)
	sc.Title = g.Name

	var boxes []graphics.LayoutNode
	var edges []graphics.LayoutEdge
	connected := map[string]bool{}
	for _, el := range g.elements {
		if IsConnector(el.Pattern) {
			edges = append(edges, graphics.LayoutEdge{From: el.From, To: el.To})
			connected[el.From] = true
			connected[el.To] = true
		}
	}
	var isolated []graphics.LayoutNode
	for _, el := range g.elements {
		if IsConnector(el.Pattern) {
			continue
		}
		w, h := boxSize(el.Pattern)
		n := graphics.LayoutNode{ID: el.ID, W: w, H: h}
		if connected[el.ID] {
			boxes = append(boxes, n)
		} else {
			isolated = append(isolated, n)
		}
	}
	pos := graphics.LayerLayout(boxes, edges, 60, 30)
	// Isolated elements in a grid strip below the graph.
	maxY := 0.0
	for _, p := range pos {
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	gridPos := graphics.GridLayout(isolated, 4, 150, 70)
	for id, p := range gridPos {
		pos[id] = graphics.Point{X: p.X + 40, Y: p.Y + maxY + 90}
	}

	// Boxes first.
	for _, el := range g.elements {
		if IsConnector(el.Pattern) {
			continue
		}
		kind, err := PatternShape(el.Pattern)
		if err != nil {
			return err
		}
		w, h := boxSize(el.Pattern)
		p := pos[el.ID]
		sh := &graphics.Shape{ID: el.ID, Kind: kind, X: p.X, Y: p.Y, W: w, H: h, Label: el.Label}
		if el.Initial {
			sh.Highlight = true
		}
		if err := sc.Add(sh); err != nil {
			return err
		}
	}
	// Connectors after, attached to box borders.
	for _, el := range g.elements {
		if !IsConnector(el.Pattern) {
			continue
		}
		kind, err := PatternShape(el.Pattern)
		if err != nil {
			return err
		}
		from := sc.Get(el.From)
		to := sc.Get(el.To)
		if from == nil || to == nil {
			return fmt.Errorf("core: connector %s has dangling endpoints %q/%q", el.ID, el.From, el.To)
		}
		x1, y1, x2, y2 := graphics.ConnectorEndpoints(from, to)
		sh := &graphics.Shape{ID: el.ID, Kind: kind, X: x1, Y: y1, X2: x2, Y2: y2, Label: el.Label, Z: -1}
		if err := sc.Add(sh); err != nil {
			return err
		}
	}
	sc.FitContent(30)
	g.scene = sc
	g.table = nil
	return nil
}

func boxSize(pattern string) (float64, float64) {
	switch pattern {
	case "Circle":
		return 96, 48
	case "Triangle":
		return 64, 44
	case "Text":
		return 120, 16
	default: // Rectangle
		return 112, 44
	}
}

// Conformance verifies the GDM against its own meta-model (experiment E3):
// every element uses a known pattern, connectors resolve, groups reference
// existing elements, ids are unique (by construction), and bindings are
// well-formed.
func (g *GDM) Conformance() error {
	for _, el := range g.elements {
		ok := false
		for _, p := range Patterns {
			if el.Pattern == p {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: element %s has unknown pattern %q", el.ID, el.Pattern)
		}
		if IsConnector(el.Pattern) {
			if g.index[el.From] == nil || g.index[el.To] == nil {
				return fmt.Errorf("core: connector %s endpoints unresolved", el.ID)
			}
		}
		if el.Group != "" && g.index[el.Group] == nil {
			// Groups may reference a container that was not itself mapped;
			// that is allowed, but the group id must then not collide with
			// a pattern name (cheap sanity check).
			for _, p := range Patterns {
				if el.Group == p {
					return fmt.Errorf("core: element %s has suspicious group %q", el.ID, el.Group)
				}
			}
		}
	}
	for _, b := range g.bindings {
		if b.Event == protocol.EvInvalid || b.Reaction == ReactNone {
			return fmt.Errorf("core: malformed binding %q", b.Name)
		}
	}
	return nil
}

// ElementsByPattern returns a sorted count per pattern (reporting).
func (g *GDM) ElementsByPattern() map[string]int {
	out := map[string]int{}
	for _, el := range g.elements {
		out[el.Pattern]++
	}
	return out
}

// SortedIDs returns all element ids sorted (deterministic reporting).
func (g *GDM) SortedIDs() []string {
	ids := make([]string, 0, len(g.elements))
	for _, el := range g.elements {
		ids = append(ids, el.ID)
	}
	sort.Strings(ids)
	return ids
}
