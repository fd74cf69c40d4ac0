package graphics

import (
	"math"
	"strings"
)

// ASCII rasterizes the scene onto a character canvas. The GDM animation is
// primarily consumed through SVG frames, but the ASCII renderer makes
// model-level debugging observable directly in a terminal (and in tests)
// without an image viewer — a pragmatic stand-in for the Eclipse canvas.
//
// Scaling: one character cell covers sx × sy scene units (default 8 × 16
// when zero), chosen so typical shapes remain legible.
//
// A connector's label is clipped where it would cover a cell on or inside
// a rect, triangle or circle, or a cell of a shape's value badge, so it
// never overwrites a box, its label or its badge; connector lines and
// arrowheads are drawn as they fall.
func (sc *Scene) ASCII(sx, sy float64) string {
	if sx <= 0 {
		sx = 8
	}
	if sy <= 0 {
		sy = 16
	}
	w := int(math.Ceil(sc.W/sx)) + 1
	h := int(math.Ceil(sc.H/sy)) + 1
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	c := newCanvas(w, h)
	shapes := sc.Shapes()
	for _, s := range shapes {
		switch s.Kind {
		case KindRect, KindTriangle, KindCircle:
			c.cover(cellRect(s, sx, sy))
		case KindText:
		default:
			continue
		}
		if s.Badge != "" {
			x0, _, _, y1 := cellRect(s, sx, sy)
			c.cover(x0+1, y1+1, x0+len(s.Badge), y1+1)
		}
	}
	for _, s := range shapes {
		drawShapeASCII(c, s, sx, sy)
	}
	return c.String()
}

type canvas struct {
	w, h  int
	cells []rune
	boxed []bool // cells on or inside a box-like shape
}

func newCanvas(w, h int) *canvas {
	c := &canvas{w: w, h: h, cells: make([]rune, w*h), boxed: make([]bool, w*h)}
	for i := range c.cells {
		c.cells[i] = ' '
	}
	return c
}

func (c *canvas) set(x, y int, r rune) {
	if x < 0 || y < 0 || x >= c.w || y >= c.h {
		return
	}
	c.cells[y*c.w+x] = r
}

func (c *canvas) text(x, y int, s string) {
	for i, r := range s {
		c.set(x+i, y, r)
	}
}

// cover marks the cells from (x0, y0) to (x1, y1) as boxed.
func (c *canvas) cover(x0, y0, x1, y1 int) {
	for y := max(y0, 0); y <= min(y1, c.h-1); y++ {
		for x := max(x0, 0); x <= min(x1, c.w-1); x++ {
			c.boxed[y*c.w+x] = true
		}
	}
}

// clippedText writes s like text but stops at the first boxed cell.
func (c *canvas) clippedText(x, y int, s string) {
	for i, r := range s {
		if cx := x + i; cx >= 0 && y >= 0 && cx < c.w && y < c.h && c.boxed[y*c.w+cx] {
			return
		}
		c.set(x+i, y, r)
	}
}

func (c *canvas) String() string {
	var b strings.Builder
	for y := 0; y < c.h; y++ {
		line := strings.TrimRight(string(c.cells[y*c.w:(y+1)*c.w]), " ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// line draws with Bresenham's algorithm.
func (c *canvas) line(x0, y0, x1, y1 int, r rune) {
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		c.set(x0, y0, r)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// cellRect returns the corner cells of a box-like or text shape, at least
// one cell apart on each axis.
func cellRect(s *Shape, sx, sy float64) (x0, y0, x1, y1 int) {
	x0, y0 = int(math.Round(s.X/sx)), int(math.Round(s.Y/sy))
	x1, y1 = int(math.Round((s.X+s.W)/sx)), int(math.Round((s.Y+s.H)/sy))
	if x1 <= x0 {
		x1 = x0 + 1
	}
	if y1 <= y0 {
		y1 = y0 + 1
	}
	return x0, y0, x1, y1
}

func drawShapeASCII(c *canvas, s *Shape, sx, sy float64) {
	toX := func(v float64) int { return int(math.Round(v / sx)) }
	toY := func(v float64) int { return int(math.Round(v / sy)) }
	hl := s.Highlight
	switch s.Kind {
	case KindRect, KindTriangle, KindCircle, KindText:
		x0, y0, x1, y1 := cellRect(s, sx, sy)
		if s.Kind != KindText {
			hch, vch := '-', '|'
			corner := '+'
			if s.Kind == KindCircle {
				hch, vch, corner = '~', '(', '.'
			}
			if hl {
				hch, vch, corner = '=', '#', '#'
			}
			for x := x0; x <= x1; x++ {
				c.set(x, y0, hch)
				c.set(x, y1, hch)
			}
			for y := y0; y <= y1; y++ {
				c.set(x0, y, vch)
				c.set(x1, y, vch)
			}
			c.set(x0, y0, corner)
			c.set(x1, y0, corner)
			c.set(x0, y1, corner)
			c.set(x1, y1, corner)
		}
		label := s.Label
		if hl && label != "" {
			label = "*" + label + "*"
		}
		if label != "" {
			lx := x0 + ((x1-x0)-len(label))/2 + 1
			if lx <= x0 {
				lx = x0 + 1
			}
			c.text(lx, (y0+y1)/2, label)
		}
		if s.Badge != "" {
			c.text(x0+1, y1+1, s.Badge)
		}
	case KindArrow, KindLine:
		x0, y0 := toX(s.X), toY(s.Y)
		x1, y1 := toX(s.X2), toY(s.Y2)
		ch := '.'
		if hl {
			ch = '*'
		}
		c.line(x0, y0, x1, y1, ch)
		if s.Kind == KindArrow {
			c.set(x1, y1, arrowHead(x0, y0, x1, y1))
		}
		if s.Label != "" {
			c.clippedText((x0+x1)/2+1, (y0+y1)/2, s.Label)
		}
	}
}

// arrowHead picks a terminal glyph approximating the arrow direction.
func arrowHead(x0, y0, x1, y1 int) rune {
	dx, dy := x1-x0, y1-y0
	if abs(dx) >= abs(dy) {
		if dx >= 0 {
			return '>'
		}
		return '<'
	}
	if dy >= 0 {
		return 'v'
	}
	return '^'
}
