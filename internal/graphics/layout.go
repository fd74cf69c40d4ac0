package graphics

import (
	"math"
	"sort"
)

// This file provides the deterministic layout algorithms used when a GDM is
// generated automatically from an input model (the paper's abstraction step
// produces an "initial GDM file" whose diagram must be laid out without
// user intervention).
//
// Two algorithms cover the generated diagrams:
//   - LayerLayout: layered DAG drawing for dataflow networks (actors,
//     function block networks) — a compact Sugiyama-style pipeline with
//     longest-path layering and barycenter ordering.
//   - GridLayout: fallback for unconnected element sets.

// LayoutNode is one box to place.
type LayoutNode struct {
	ID   string
	W, H float64
}

// LayoutEdge is a directed edge between two nodes.
type LayoutEdge struct {
	From, To string
}

// Point is a computed top-left position for a node.
type Point struct{ X, Y float64 }

// GridLayout places nodes row-major on a fixed grid with the given cell
// size; cols <= 0 chooses ceil(sqrt(n)) for a near-square arrangement.
func GridLayout(nodes []LayoutNode, cols int, cellW, cellH float64) map[string]Point {
	out := make(map[string]Point, len(nodes))
	if len(nodes) == 0 {
		return out
	}
	if cols <= 0 {
		cols = int(math.Ceil(math.Sqrt(float64(len(nodes)))))
	}
	for i, n := range nodes {
		r, c := i/cols, i%cols
		out[n.ID] = Point{
			X: float64(c)*cellW + (cellW-n.W)/2,
			Y: float64(r)*cellH + (cellH-n.H)/2,
		}
	}
	return out
}

// LayerLayout computes a left-to-right layered drawing of a DAG:
//
//  1. layering by longest path from sources,
//  2. within-layer ordering by one barycenter sweep (average position of
//     predecessors), ties broken by id for determinism,
//  3. coordinates: layers become columns spaced by gapX; nodes stack
//     vertically spaced by gapY and each column is vertically centred.
//
// Cycles are tolerated: back edges are ignored for layering (the node
// keeps the layer its forward paths give it), which matches how dataflow
// feedback loops are conventionally drawn.
func LayerLayout(nodes []LayoutNode, edges []LayoutEdge, gapX, gapY float64) map[string]Point {
	out := make(map[string]Point, len(nodes))
	if len(nodes) == 0 {
		return out
	}
	byID := make(map[string]*LayoutNode, len(nodes))
	order := make([]string, 0, len(nodes))
	for i := range nodes {
		byID[nodes[i].ID] = &nodes[i]
		order = append(order, nodes[i].ID)
	}
	succ := map[string][]string{}
	pred := map[string][]string{}
	indeg := map[string]int{}
	for _, e := range edges {
		if byID[e.From] == nil || byID[e.To] == nil || e.From == e.To {
			continue
		}
		succ[e.From] = append(succ[e.From], e.To)
		pred[e.To] = append(pred[e.To], e.From)
		indeg[e.To]++
	}

	// Longest-path layering via Kahn order; nodes on cycles that never
	// reach indegree 0 are assigned afterwards at (max pred layer + 1).
	layer := map[string]int{}
	queue := []string{}
	for _, id := range order {
		if indeg[id] == 0 {
			layer[id] = 0
			queue = append(queue, id)
		}
	}
	deg := map[string]int{}
	for id, d := range indeg {
		deg[id] = d
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, s := range succ[id] {
			if layer[id]+1 > layer[s] {
				layer[s] = layer[id] + 1
			}
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	for _, id := range order {
		if _, ok := layer[id]; !ok {
			best := 0
			for _, p := range pred[id] {
				if lp, ok := layer[p]; ok && lp+1 > best {
					best = lp + 1
				}
			}
			layer[id] = best
		}
	}

	// Group into layers, initial order = input order.
	maxLayer := 0
	for _, l := range layer {
		if l > maxLayer {
			maxLayer = l
		}
	}
	layers := make([][]string, maxLayer+1)
	for _, id := range order {
		l := layer[id]
		layers[l] = append(layers[l], id)
	}

	// One barycenter sweep left-to-right.
	rank := map[string]int{}
	for i, id := range layers[0] {
		rank[id] = i
	}
	for l := 1; l <= maxLayer; l++ {
		ids := layers[l]
		type keyed struct {
			id  string
			bar float64
		}
		ks := make([]keyed, len(ids))
		for i, id := range ids {
			ps := pred[id]
			if len(ps) == 0 {
				ks[i] = keyed{id, float64(i)}
				continue
			}
			sum := 0.0
			for _, p := range ps {
				sum += float64(rank[p])
			}
			ks[i] = keyed{id, sum / float64(len(ps))}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			if ks[i].bar != ks[j].bar {
				return ks[i].bar < ks[j].bar
			}
			return ks[i].id < ks[j].id
		})
		for i, k := range ks {
			ids[i] = k.id
			rank[k.id] = i
		}
	}

	// Coordinates. Column x advances by the widest node in each layer.
	colHeights := make([]float64, maxLayer+1)
	colWidths := make([]float64, maxLayer+1)
	for l, ids := range layers {
		for _, id := range ids {
			n := byID[id]
			colHeights[l] += n.H + gapY
			if n.W > colWidths[l] {
				colWidths[l] = n.W
			}
		}
		if len(ids) > 0 {
			colHeights[l] -= gapY
		}
	}
	totalH := 0.0
	for _, h := range colHeights {
		if h > totalH {
			totalH = h
		}
	}
	x := gapX
	for l, ids := range layers {
		y := gapY + (totalH-colHeights[l])/2
		for _, id := range ids {
			n := byID[id]
			out[id] = Point{X: x + (colWidths[l]-n.W)/2, Y: y}
			y += n.H + gapY
		}
		x += colWidths[l] + gapX
	}
	return out
}

// ConnectorEndpoints computes where an arrow between two box shapes should
// attach: the intersection of the centre-to-centre segment with each box
// boundary, so arrows do not start or end inside the boxes.
func ConnectorEndpoints(from, to *Shape) (x1, y1, x2, y2 float64) {
	fx, fy := from.Center()
	tx, ty := to.Center()
	x1, y1 = boxEdgePoint(from, tx, ty)
	x2, y2 = boxEdgePoint(to, fx, fy)
	return
}

// boxEdgePoint returns the point on the boundary of s along the ray from
// the centre of s towards (px, py).
func boxEdgePoint(s *Shape, px, py float64) (float64, float64) {
	cx, cy := s.Center()
	dx, dy := px-cx, py-cy
	if dx == 0 && dy == 0 {
		return cx, cy
	}
	halfW, halfH := s.W/2, s.H/2
	if halfW == 0 || halfH == 0 {
		return cx, cy
	}
	// Scale the direction vector until it touches the box border.
	scale := math.Inf(1)
	if dx != 0 {
		scale = math.Min(scale, halfW/math.Abs(dx))
	}
	if dy != 0 {
		scale = math.Min(scale, halfH/math.Abs(dy))
	}
	return cx + dx*scale, cy + dy*scale
}
