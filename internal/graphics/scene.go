// Package graphics is the rendering substrate of the GMDF reproduction.
// It stands in for the Eclipse Graphical Editing Framework (GEF) used by
// the paper's prototype: a retained-mode scene graph whose shapes are the
// GDM patterns (Rectangle, Triangle, Circle, Arrow, Line — exactly the
// options offered by the abstraction guide in Fig. 4), deterministic
// layout algorithms, and two renderers (SVG and ASCII) so animation frames
// can be inspected both graphically and in terminals/tests.
package graphics

import (
	"fmt"
	"math"
	"sort"
)

// ShapeKind enumerates the drawable primitives. The first five are the GDM
// pattern vocabulary from the paper's Fig. 4; Text is used for labels and
// value annotations.
type ShapeKind uint8

// Shape kinds.
const (
	KindRect ShapeKind = iota
	KindCircle
	KindTriangle
	KindArrow
	KindLine
	KindText
)

// String returns the pattern name as shown in the abstraction guide.
func (k ShapeKind) String() string {
	switch k {
	case KindRect:
		return "Rectangle"
	case KindCircle:
		return "Circle"
	case KindTriangle:
		return "Triangle"
	case KindArrow:
		return "Arrow"
	case KindLine:
		return "Line"
	case KindText:
		return "Text"
	default:
		return fmt.Sprintf("ShapeKind(%d)", k)
	}
}

// ParseShapeKind converts a pattern name to its kind.
func ParseShapeKind(s string) (ShapeKind, error) {
	switch s {
	case "Rectangle":
		return KindRect, nil
	case "Circle":
		return KindCircle, nil
	case "Triangle":
		return KindTriangle, nil
	case "Arrow":
		return KindArrow, nil
	case "Line":
		return KindLine, nil
	case "Text":
		return KindText, nil
	}
	return 0, fmt.Errorf("graphics: unknown shape kind %q", s)
}

// Style holds the static visual attributes of a shape.
type Style struct {
	Stroke string // CSS colour, e.g. "#000"
	Fill   string // CSS colour or "" for none
	Width  float64
	Dashed bool
}

// DefaultStyle is applied to shapes with a zero Style.
var DefaultStyle = Style{Stroke: "#222222", Fill: "#ffffff", Width: 1}

// HighlightStyle is overlaid on highlighted shapes (the paper's example
// reaction: "highlighting active states at runtime").
var HighlightStyle = Style{Stroke: "#cc2200", Fill: "#ffd27f", Width: 3}

// Shape is one drawable element. Box shapes (Rect, Circle, Triangle, Text)
// use X, Y, W, H as their bounding box; connector shapes (Arrow, Line) run
// from (X, Y) to (X2, Y2).
type Shape struct {
	ID    string
	Kind  ShapeKind
	X, Y  float64
	W, H  float64
	X2    float64
	Y2    float64
	Label string
	Style Style
	Z     int

	// Highlight is the dynamic animation flag toggled by debugger
	// reactions; renderers overlay HighlightStyle when set.
	Highlight bool
	// Badge is a short dynamic annotation (e.g. a live signal value).
	Badge string
}

// Center returns the midpoint of the shape's box (or segment).
func (s *Shape) Center() (float64, float64) {
	if s.Kind == KindArrow || s.Kind == KindLine {
		return (s.X + s.X2) / 2, (s.Y + s.Y2) / 2
	}
	return s.X + s.W/2, s.Y + s.H/2
}

// Scene is an ordered collection of shapes with an id index.
type Scene struct {
	W, H   float64
	Title  string
	shapes []*Shape
	index  map[string]*Shape
}

// NewScene creates an empty scene with the given canvas size.
func NewScene(w, h float64) *Scene {
	return &Scene{W: w, H: h, index: map[string]*Shape{}}
}

// Add inserts a shape; duplicate ids are an error.
func (sc *Scene) Add(s *Shape) error {
	if s.ID == "" {
		return fmt.Errorf("graphics: shape with empty id")
	}
	if _, dup := sc.index[s.ID]; dup {
		return fmt.Errorf("graphics: duplicate shape id %q", s.ID)
	}
	if s.Style == (Style{}) {
		s.Style = DefaultStyle
	}
	sc.shapes = append(sc.shapes, s)
	sc.index[s.ID] = s
	return nil
}

// MustAdd is Add that panics; for fixtures.
func (sc *Scene) MustAdd(s *Shape) *Shape {
	if err := sc.Add(s); err != nil {
		panic(err)
	}
	return s
}

// Get returns the shape with the given id, or nil.
func (sc *Scene) Get(id string) *Shape { return sc.index[id] }

// Len returns the number of shapes.
func (sc *Scene) Len() int { return len(sc.shapes) }

// Shapes returns the shapes sorted by (Z, insertion order) — the painter's
// order used by renderers.
func (sc *Scene) Shapes() []*Shape {
	out := make([]*Shape, len(sc.shapes))
	copy(out, sc.shapes)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Z < out[j].Z })
	return out
}

// SetHighlight toggles the highlight flag of a shape; unknown ids are an
// error so reaction misbindings surface during debugging sessions.
func (sc *Scene) SetHighlight(id string, on bool) error {
	s := sc.index[id]
	if s == nil {
		return fmt.Errorf("graphics: no shape %q", id)
	}
	s.Highlight = on
	return nil
}

// SetBadge sets the dynamic annotation of a shape.
func (sc *Scene) SetBadge(id, badge string) error {
	s := sc.index[id]
	if s == nil {
		return fmt.Errorf("graphics: no shape %q", id)
	}
	s.Badge = badge
	return nil
}

// ClearDynamic resets all animation state — highlights and badges — back
// to a freshly built scene (the rewind path of the checkpoint subsystem).
func (sc *Scene) ClearDynamic() {
	for _, s := range sc.shapes {
		s.Highlight = false
		s.Badge = ""
	}
}

// Highlighted returns the sorted ids of currently highlighted shapes.
func (sc *Scene) Highlighted() []string {
	var out []string
	for _, s := range sc.shapes {
		if s.Highlight {
			out = append(out, s.ID)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a deep copy of the scene; animation recording stores
// one snapshot per frame.
func (sc *Scene) Snapshot() *Scene {
	cp := NewScene(sc.W, sc.H)
	cp.Title = sc.Title
	for _, s := range sc.shapes {
		dup := *s
		cp.shapes = append(cp.shapes, &dup)
		cp.index[dup.ID] = &dup
	}
	return cp
}

// FitContent grows the canvas to enclose all shapes plus a margin.
func (sc *Scene) FitContent(margin float64) {
	var maxX, maxY float64
	for _, s := range sc.shapes {
		x2, y2 := s.X+s.W, s.Y+s.H
		if s.Kind == KindArrow || s.Kind == KindLine {
			x2, y2 = math.Max(s.X, s.X2), math.Max(s.Y, s.Y2)
		}
		maxX = math.Max(maxX, x2)
		maxY = math.Max(maxY, y2)
	}
	if maxX+margin > sc.W {
		sc.W = maxX + margin
	}
	if maxY+margin > sc.H {
		sc.H = maxY + margin
	}
}
