package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graphics"
	"repro/models"
)

var update = flag.Bool("update", false, "rewrite the gdmrender stdout goldens under testdata/")

// TestStdoutGoldens pins what gdmrender prints for the heating demo in
// each format, and the ASCII rendering of the saved JSON read back with
// -in, so a GDM survives the round trip through its file. Regenerate with
//
//	go test ./cmd/gdmrender -update
func TestStdoutGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"heating_ascii", []string{"-demo", "heating", "-format", "ascii"}},
		{"heating_svg", []string{"-demo", "heating", "-format", "svg"}},
		// heating_json is the -in file of the next case.
		{"heating_json", []string{"-demo", "heating", "-format", "json"}},
		{"in_heating_ascii", []string{"-in", filepath.Join("testdata", "heating_json.golden"), "-format", "ascii"}},
		{"dist_ascii", []string{"-demo", "dist"}},
		{"priorityload_ascii", []string{"-demo", "priorityload"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if out.String() != string(want) {
				t.Fatalf("gdmrender %s: stdout differs from %s\n--- got ---\n%s", strings.Join(c.args, " "), golden, out.String())
			}
		})
	}
}

// TestRefusedDemo: an unknown demo name is an error, not an empty render.
func TestRefusedDemo(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "nosuch"}, &out); err == nil {
		t.Fatal("demo nosuch accepted")
	}
}

// TestBoxLabelsIntact: in the ASCII rendering of the heating, priorityload
// and dist demos, the inside of every labelled rect, triangle and circle
// holds its label on its middle row (starred when highlighted) and nothing
// else but blanks and the connector lines that cross it — no connector label is written over a
// box. Cells are computed at the renderer's default scale of 8 × 16 scene
// units.
func TestBoxLabelsIntact(t *testing.T) {
	const lineGlyphs = " .*<>^v"
	for _, name := range []string{"heating", "priorityload", "dist"} {
		sys, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := buildGDM(sys)
		if err != nil {
			t.Fatal(err)
		}
		sc := g.Scene()
		rows := strings.Split(sc.ASCII(0, 0), "\n")
		boxes := 0
		for _, s := range sc.Shapes() {
			if s.Label == "" || (s.Kind != graphics.KindRect && s.Kind != graphics.KindTriangle && s.Kind != graphics.KindCircle) {
				continue
			}
			boxes++
			x0, y0 := int(math.Round(s.X/8)), int(math.Round(s.Y/16))
			x1, y1 := max(int(math.Round((s.X+s.W)/8)), x0+1), max(int(math.Round((s.Y+s.H)/16)), y0+1)
			for y := y0 + 1; y < y1; y++ {
				row := []rune(rows[y] + strings.Repeat(" ", x1+1))
				inside, want := strings.Trim(string(row[x0+1:x1]), lineGlyphs), ""
				if y == (y0+y1)/2 {
					inside, want = strings.Trim(string(row[x0+1:x1]), " ."), s.Label
					if s.Highlight {
						want = "*" + s.Label + "*"
					}
				}
				if inside != want {
					t.Errorf("%s: box %q holds %q on row %d, want %q", name, s.Label, inside, y, want)
				}
			}
		}
		if boxes < 10 {
			t.Fatalf("%s: only %d labelled boxes", name, boxes)
		}
	}
}
