package graphics

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestShapeKindNames(t *testing.T) {
	kinds := []ShapeKind{KindRect, KindCircle, KindTriangle, KindArrow, KindLine, KindText}
	for _, k := range kinds {
		name := k.String()
		got, err := ParseShapeKind(name)
		if err != nil || got != k {
			t.Errorf("ParseShapeKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseShapeKind("Hexagon"); err == nil {
		t.Error("unknown kind should fail")
	}
	if !strings.Contains(ShapeKind(99).String(), "99") {
		t.Error("unknown kind String should embed the number")
	}
}

func TestSceneBasics(t *testing.T) {
	sc := NewScene(200, 100)
	r := sc.MustAdd(&Shape{ID: "a", Kind: KindRect, X: 10, Y: 10, W: 40, H: 20, Label: "A"})
	sc.MustAdd(&Shape{ID: "b", Kind: KindCircle, X: 100, Y: 10, W: 30, H: 30})
	if sc.Len() != 2 || sc.Get("a") != r || sc.Get("zz") != nil {
		t.Fatal("scene indexing broken")
	}
	if err := sc.Add(&Shape{ID: "a"}); err == nil {
		t.Error("duplicate id should fail")
	}
	if err := sc.Add(&Shape{}); err == nil {
		t.Error("empty id should fail")
	}
	if r.Style != DefaultStyle {
		t.Error("default style not applied")
	}
	cx, cy := r.Center()
	if cx != 30 || cy != 20 {
		t.Errorf("Center = %g,%g", cx, cy)
	}
	ln := &Shape{ID: "l", Kind: KindLine, X: 0, Y: 0, X2: 10, Y2: 10}
	sc.MustAdd(ln)
	lx, ly := ln.Center()
	if lx != 5 || ly != 5 {
		t.Errorf("line Center = %g,%g", lx, ly)
	}
}

func TestHighlightLifecycle(t *testing.T) {
	sc := NewScene(100, 100)
	sc.MustAdd(&Shape{ID: "s1", Kind: KindRect, W: 10, H: 10})
	sc.MustAdd(&Shape{ID: "s2", Kind: KindRect, W: 10, H: 10})
	if err := sc.SetHighlight("s1", true); err != nil {
		t.Fatal(err)
	}
	if err := sc.SetHighlight("ghost", true); err == nil {
		t.Error("unknown id should fail")
	}
	if got := sc.Highlighted(); len(got) != 1 || got[0] != "s1" {
		t.Errorf("Highlighted = %v", got)
	}
	if err := sc.SetBadge("s2", "42"); err != nil {
		t.Fatal(err)
	}
	if err := sc.SetBadge("ghost", "x"); err == nil {
		t.Error("badge on unknown id should fail")
	}
	sc.ClearDynamic()
	if got := sc.Highlighted(); len(got) != 0 {
		t.Errorf("after clear, Highlighted = %v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	sc := NewScene(100, 100)
	sc.MustAdd(&Shape{ID: "s", Kind: KindRect, W: 10, H: 10})
	snap := sc.Snapshot()
	if err := sc.SetHighlight("s", true); err != nil {
		t.Fatal(err)
	}
	if snap.Get("s").Highlight {
		t.Error("snapshot shares state with live scene")
	}
	if snap.Len() != 1 || snap.W != 100 {
		t.Error("snapshot incomplete")
	}
}

func TestZOrder(t *testing.T) {
	sc := NewScene(10, 10)
	sc.MustAdd(&Shape{ID: "top", Kind: KindRect, Z: 5})
	sc.MustAdd(&Shape{ID: "bottom", Kind: KindRect, Z: -1})
	sc.MustAdd(&Shape{ID: "mid", Kind: KindRect, Z: 0})
	got := sc.Shapes()
	if got[0].ID != "bottom" || got[1].ID != "mid" || got[2].ID != "top" {
		t.Errorf("painter order wrong: %s %s %s", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestFitContent(t *testing.T) {
	sc := NewScene(10, 10)
	sc.MustAdd(&Shape{ID: "far", Kind: KindRect, X: 100, Y: 200, W: 50, H: 20})
	sc.MustAdd(&Shape{ID: "ln", Kind: KindLine, X: 0, Y: 0, X2: 300, Y2: 5})
	sc.FitContent(10)
	if sc.W != 310 || sc.H != 230 {
		t.Errorf("FitContent = %g x %g, want 310 x 230", sc.W, sc.H)
	}
}

func TestSVGOutput(t *testing.T) {
	sc := NewScene(300, 200)
	sc.Title = "demo <&>"
	sc.MustAdd(&Shape{ID: "r", Kind: KindRect, X: 10, Y: 10, W: 60, H: 30, Label: "Idle"})
	sc.MustAdd(&Shape{ID: "c", Kind: KindCircle, X: 100, Y: 10, W: 30, H: 30})
	sc.MustAdd(&Shape{ID: "t", Kind: KindTriangle, X: 150, Y: 10, W: 30, H: 30})
	sc.MustAdd(&Shape{ID: "a", Kind: KindArrow, X: 70, Y: 25, X2: 100, Y2: 25})
	sc.MustAdd(&Shape{ID: "l", Kind: KindLine, X: 0, Y: 0, X2: 5, Y2: 5, Style: Style{Stroke: "#000", Width: 1, Dashed: true}})
	sc.MustAdd(&Shape{ID: "txt", Kind: KindText, X: 10, Y: 100, W: 50, H: 12, Label: "hello"})
	if err := sc.SetHighlight("r", true); err != nil {
		t.Fatal(err)
	}
	if err := sc.SetBadge("c", "v=1"); err != nil {
		t.Fatal(err)
	}
	svg := sc.SVG()
	for _, want := range []string{"<svg", "<rect", "<ellipse", "<polygon", "marker-end", "stroke-dasharray", "Idle", "hello", "v=1", "demo &lt;&amp;&gt;"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Highlighted rect must use the highlight stroke colour.
	if !strings.Contains(svg, HighlightStyle.Stroke) {
		t.Error("highlight style not applied")
	}
	// Must be well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG not well-formed: %v", err)
		}
	}
}

func TestSVGDeterminism(t *testing.T) {
	build := func() string {
		sc := NewScene(100, 100)
		sc.MustAdd(&Shape{ID: "x", Kind: KindRect, X: 1, Y: 2, W: 3, H: 4})
		sc.MustAdd(&Shape{ID: "y", Kind: KindCircle, X: 5, Y: 6, W: 7, H: 8})
		return sc.SVG()
	}
	if build() != build() {
		t.Error("SVG output not deterministic")
	}
}

func TestASCIIOutput(t *testing.T) {
	sc := NewScene(320, 160)
	sc.MustAdd(&Shape{ID: "r", Kind: KindRect, X: 8, Y: 16, W: 96, H: 48, Label: "Off"})
	sc.MustAdd(&Shape{ID: "c", Kind: KindCircle, X: 160, Y: 16, W: 64, H: 48, Label: "On"})
	sc.MustAdd(&Shape{ID: "a", Kind: KindArrow, X: 104, Y: 40, X2: 160, Y2: 40})
	art := sc.ASCII(8, 16)
	for _, want := range []string{"Off", "On", "+", ">"} {
		if !strings.Contains(art, want) {
			t.Errorf("ASCII missing %q in:\n%s", want, art)
		}
	}
	if err := sc.SetHighlight("r", true); err != nil {
		t.Fatal(err)
	}
	hart := sc.ASCII(8, 16)
	if !strings.Contains(hart, "*Off*") || !strings.Contains(hart, "#") {
		t.Errorf("highlight not visible in ASCII:\n%s", hart)
	}
}

func TestASCIIArrowHeads(t *testing.T) {
	if arrowHead(0, 0, 5, 0) != '>' || arrowHead(5, 0, 0, 0) != '<' ||
		arrowHead(0, 0, 0, 5) != 'v' || arrowHead(0, 5, 0, 0) != '^' {
		t.Error("arrow heads wrong")
	}
}

func TestGridLayout(t *testing.T) {
	nodes := []LayoutNode{{"a", 10, 10}, {"b", 10, 10}, {"c", 10, 10}, {"d", 10, 10}}
	pos := GridLayout(nodes, 2, 50, 40)
	if len(pos) != 4 {
		t.Fatalf("GridLayout size %d", len(pos))
	}
	if pos["a"].Y != pos["b"].Y || pos["c"].Y == pos["a"].Y {
		t.Error("grid rows wrong")
	}
	if pos["a"].X != pos["c"].X {
		t.Error("grid columns wrong")
	}
	auto := GridLayout(nodes, 0, 50, 40)
	if len(auto) != 4 {
		t.Error("auto cols failed")
	}
	if len(GridLayout(nil, 0, 10, 10)) != 0 {
		t.Error("empty layout should be empty")
	}
}

func TestLayerLayoutChain(t *testing.T) {
	nodes := []LayoutNode{{"src", 20, 10}, {"mid", 20, 10}, {"dst", 20, 10}}
	edges := []LayoutEdge{{"src", "mid"}, {"mid", "dst"}}
	pos := LayerLayout(nodes, edges, 20, 10)
	if !(pos["src"].X < pos["mid"].X && pos["mid"].X < pos["dst"].X) {
		t.Errorf("chain not left-to-right: %+v", pos)
	}
}

func TestLayerLayoutDiamondAndCycle(t *testing.T) {
	nodes := []LayoutNode{{"a", 20, 10}, {"b", 20, 10}, {"c", 20, 10}, {"d", 20, 10}}
	edges := []LayoutEdge{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"d", "a"}} // incl. feedback
	pos := LayerLayout(nodes, edges, 20, 10)
	if len(pos) != 4 {
		t.Fatal("missing nodes")
	}
	if !(pos["a"].X < pos["b"].X && pos["b"].X < pos["d"].X) {
		t.Errorf("diamond layering wrong: %+v", pos)
	}
	if pos["b"].X != pos["c"].X {
		t.Errorf("b and c should share a layer: %+v", pos)
	}
	// Self-loop and unknown endpoints are ignored, not fatal.
	_ = LayerLayout(nodes, []LayoutEdge{{"a", "a"}, {"zz", "a"}}, 20, 10)
}

func TestLayerLayoutAllCycle(t *testing.T) {
	// A pure cycle has no sources; all nodes must still be placed.
	nodes := []LayoutNode{{"a", 20, 10}, {"b", 20, 10}}
	edges := []LayoutEdge{{"a", "b"}, {"b", "a"}}
	pos := LayerLayout(nodes, edges, 20, 10)
	if len(pos) != 2 {
		t.Fatalf("cycle nodes unplaced: %+v", pos)
	}
	if len(LayerLayout(nil, nil, 10, 10)) != 0 {
		t.Error("empty layer layout should be empty")
	}
}

// Property: LayerLayout places every node exactly once at finite coordinates.
func TestQuickLayerLayoutTotal(t *testing.T) {
	f := func(edgeBits []uint8) bool {
		const n = 6
		nodes := make([]LayoutNode, n)
		for i := range nodes {
			nodes[i] = LayoutNode{ID: string(rune('a' + i)), W: 20, H: 10}
		}
		var edges []LayoutEdge
		for i, b := range edgeBits {
			from := int(b>>4) % n
			to := int(b&0xf) % n
			if i > 24 {
				break
			}
			edges = append(edges, LayoutEdge{nodes[from].ID, nodes[to].ID})
		}
		pos := LayerLayout(nodes, edges, 10, 10)
		if len(pos) != n {
			return false
		}
		for _, p := range pos {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConnectorEndpoints(t *testing.T) {
	a := &Shape{ID: "a", Kind: KindRect, X: 0, Y: 0, W: 20, H: 20}
	b := &Shape{ID: "b", Kind: KindRect, X: 100, Y: 0, W: 20, H: 20}
	x1, y1, x2, y2 := ConnectorEndpoints(a, b)
	if x1 != 20 || y1 != 10 {
		t.Errorf("start = %g,%g want 20,10", x1, y1)
	}
	if x2 != 100 || y2 != 10 {
		t.Errorf("end = %g,%g want 100,10", x2, y2)
	}
	// Degenerate: coincident centres.
	c := &Shape{ID: "c", Kind: KindRect, X: 0, Y: 0, W: 20, H: 20}
	x1, y1, _, _ = ConnectorEndpoints(a, c)
	if x1 != 10 || y1 != 10 {
		t.Errorf("coincident centres: %g,%g", x1, y1)
	}
	// Degenerate: zero-size box.
	z := &Shape{ID: "z", Kind: KindRect, X: 50, Y: 50}
	x1, y1, _, _ = ConnectorEndpoints(z, b)
	if x1 != 50 || y1 != 50 {
		t.Errorf("zero box: %g,%g", x1, y1)
	}
}

func TestTimingDiagramASCII(t *testing.T) {
	d := NewDiagram()
	d.Record("state", 0, "Off")
	d.Record("state", 10e6, "On")
	d.Record("state", 20e6, "Off")
	d.Record("temp", 0, "20")
	d.Record("temp", 15e6, "25")
	art := d.ASCII(60)
	for _, want := range []string{"state", "temp", "|"} {
		if !strings.Contains(art, want) {
			t.Errorf("ASCII diagram missing %q:\n%s", want, art)
		}
	}
	if d.Track("state") == nil || d.Track("ghost") != nil {
		t.Error("Track lookup broken")
	}
	t0, t1 := d.Span()
	if t0 != 0 || t1 != 20e6 {
		t.Errorf("Span = %d..%d", t0, t1)
	}
	if len(d.Tracks()) != 2 {
		t.Error("track count wrong")
	}
	if !strings.Contains(NewDiagram().ASCII(40), "empty") {
		t.Error("empty diagram should say so")
	}
}

func TestTimingDiagramCoalesceAndClamp(t *testing.T) {
	d := NewDiagram()
	d.Record("s", 10, "a")
	d.Record("s", 20, "a") // repeated value coalesced
	if len(d.Track("s").Changes) != 1 {
		t.Error("repeated value not coalesced")
	}
	d.Record("s", 5, "b") // out of order clamps to t=10
	ch := d.Track("s").Changes
	if len(ch) != 2 || ch[1].T != 10 || ch[1].Value != "b" {
		t.Errorf("clamp failed: %+v", ch)
	}
}

func TestTimingDiagramIncidentMarkers(t *testing.T) {
	d := NewDiagram()
	d.Record("task:low", 0, "run")
	d.Record("task:low", 1000, "idle")
	d.MarkAt("task:low", 500, '^', "preempt<hog")
	d.MarkAt("task:low", 1000, '!', "miss")
	d.MarkAt("task:ghost", 800, '!', "miss") // marker-only track is created

	out := d.ASCII(40)
	if !strings.Contains(out, "^") || !strings.Contains(out, "!") {
		t.Fatalf("ASCII lanes missing incident glyphs:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + (waveform + marker lane) for task:low + marker lane track.
	if len(lines) < 4 {
		t.Fatalf("expected marker lanes under marked tracks:\n%s", out)
	}

	// Marks widen the span.
	if _, t1 := d.Span(); t1 != 1000 {
		t.Fatalf("span end %d", t1)
	}
	d.MarkAt("task:low", 5000, '!', "late miss")
	if _, t1 := d.Span(); t1 != 5000 {
		t.Fatalf("span must include marks, end %d", t1)
	}
}

// TestASCIIClipsConnectorLabels: a connector label stops at the first cell
// on or inside a box, whichever was drawn first, while the connector's
// line still crosses the box.
func TestASCIIClipsConnectorLabels(t *testing.T) {
	sc := NewScene(160, 64)
	sc.MustAdd(&Shape{ID: "l", Kind: KindLine, X: 0, Y: 32, X2: 160, Y2: 32, Label: "a-long-connector-label"})
	sc.MustAdd(&Shape{ID: "box", Kind: KindRect, X: 120, Y: 16, W: 32, H: 32, Label: "B"})
	got := strings.Split(sc.ASCII(0, 0), "\n")[2]
	if want := "...........a-lo|.B.|."; got != want {
		t.Fatalf("label row %q, want %q", got, want)
	}
}

// TestASCIIClipsConnectorLabelsAtBadges: a value badge, drawn on the row
// below its box, stops a connector label as the box does.
func TestASCIIClipsConnectorLabelsAtBadges(t *testing.T) {
	sc := NewScene(160, 64)
	sc.MustAdd(&Shape{ID: "l", Kind: KindLine, X: 0, Y: 48, X2: 160, Y2: 48, Label: "a-long-connector-label"})
	sc.MustAdd(&Shape{ID: "box", Kind: KindRect, X: 120, Y: 0, W: 32, H: 32, Label: "B"})
	if err := sc.SetBadge("box", "42"); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(sc.ASCII(0, 0), "\n")[3]
	if want := "...........a-lon42..."; got != want {
		t.Fatalf("label row %q, want %q", got, want)
	}
}
