package dsl

import (
	"strings"
	"testing"
)

// lintOne runs the full front end up to lint and returns only warnings;
// the input must parse and check clean, as Lint assumes.
func lintOne(t *testing.T, src string) []Diagnostic {
	t.Helper()
	f, diags := ParseFile(src)
	if HasErrors(diags) {
		t.Fatalf("parse errors in lint test input:\n%s", Render("t.gmdf", src, diags))
	}
	if cd := Check(f, DefaultLimits()); HasErrors(cd) {
		t.Fatalf("check errors in lint test input:\n%s", Render("t.gmdf", src, cd))
	}
	return Lint(f)
}

func wantWarning(t *testing.T, ds []Diagnostic, sub string) {
	t.Helper()
	for _, d := range ds {
		if strings.Contains(d.Msg, sub) {
			if d.Sev != SevWarning {
				t.Errorf("%q reported as %v, want warning", d.Msg, d.Sev)
			}
			return
		}
	}
	var msgs []string
	for _, d := range ds {
		msgs = append(msgs, d.Msg)
	}
	t.Errorf("no warning contains %q; got %q", sub, msgs)
}

func TestLintFindings(t *testing.T) {
	netBody := "        in x float\n        out y float\n        block gain g { k = 1.0  wat = 3.0 }\n" +
		"        wire .x -> g.in\n        wire g.out -> .y\n"
	src := "system t\n\nenum Unused { a b }\n\nactor a {\n    period 10ms\n    offset 10ms\n    deadline 10ms\n    priority 2\n    network n {\n" +
		netBody + "    }\n}\n"
	ds := lintOne(t, src)
	wantWarning(t, ds, "zero scheduling slack")
	wantWarning(t, ds, "not below its period")
	wantWarning(t, ds, "has no effect without 'board { sched fixed_priority }'")
	wantWarning(t, ds, `ignores parameter "wat"`)
	wantWarning(t, ds, "never referenced by a mode selector")
}

// TestLintBusWithoutPlacement: a bus schedule on an unplaced system is
// legal and useless; a placed node without a slot can never transmit.
func TestLintBusWithoutPlacement(t *testing.T) {
	src := wrap("        in x float\n        out y float\n        block gain g { k = 1.0 }\n"+
		"        wire .x -> g.in\n        wire g.out -> .y\n") +
		"bus {\n    slot main 100us\n}\n"
	wantWarning(t, lintOne(t, src), "fewer than two nodes")

	placed := strings.Replace(twoNodeSrc, "    slot n2 150us\n", "", 1)
	f, _ := ParseFile(placed)
	wantWarning(t, Lint(f), `node "n2" has no bus slot`)
}

// TestLintSilentOnCleanFile: the committed fidelity example lints clean —
// a warning there would print on every -scenario run.
func TestLintSilentOnCleanFile(t *testing.T) {
	src := wrap("        in x float\n        out y float\n        block gain g { k = 2.0 }\n" +
		"        wire .x -> g.in\n        wire g.out -> .y\n")
	if ds := lintOne(t, src); len(ds) != 0 {
		t.Fatalf("clean file lint warnings:\n%s", Render("t.gmdf", src, ds))
	}
}
