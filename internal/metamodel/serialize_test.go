package metamodel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/value"
)

func TestMetamodelXMLRoundtrip(t *testing.T) {
	m1 := fsmMeta(t)
	var buf bytes.Buffer
	if err := m1.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMetamodelXML(&buf)
	if err != nil {
		t.Fatalf("ReadMetamodelXML: %v", err)
	}
	assertMetaEqual(t, m1, m2)

	// Stability: re-encoding yields identical bytes.
	var buf1, buf2 bytes.Buffer
	if err := m1.WriteXML(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteXML(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Error("XML re-encoding not stable")
	}
}

func assertMetaEqual(t *testing.T, a, b *Metamodel) {
	t.Helper()
	if a.Name != b.Name || a.URI != b.URI {
		t.Errorf("identity mismatch: %s/%s vs %s/%s", a.Name, a.URI, b.Name, b.URI)
	}
	ca, cb := a.Classes(), b.Classes()
	if len(ca) != len(cb) {
		t.Fatalf("class count %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		x, y := ca[i], cb[i]
		if x.Name != y.Name || x.Abstract != y.Abstract {
			t.Errorf("class %d: %s/%v vs %s/%v", i, x.Name, x.Abstract, y.Name, y.Abstract)
		}
		if (x.Super() == nil) != (y.Super() == nil) {
			t.Errorf("class %s: super presence differs", x.Name)
		}
		ax, ay := x.AllAttributes(), y.AllAttributes()
		if len(ax) != len(ay) {
			t.Fatalf("class %s: attr count %d vs %d", x.Name, len(ax), len(ay))
		}
		for j := range ax {
			if ax[j].Name != ay[j].Name || ax[j].Type != ay[j].Type || ax[j].Enum != ay[j].Enum ||
				ax[j].Required != ay[j].Required || !sameDefault(ax[j].Default, ay[j].Default) {
				t.Errorf("class %s attr %s mismatch", x.Name, ax[j].Name)
			}
		}
		rx, ry := x.AllReferences(), y.AllReferences()
		if len(rx) != len(ry) {
			t.Fatalf("class %s: ref count %d vs %d", x.Name, len(rx), len(ry))
		}
		for j := range rx {
			if *rx[j] != *ry[j] {
				t.Errorf("class %s ref %s mismatch: %+v vs %+v", x.Name, rx[j].Name, rx[j], ry[j])
			}
		}
	}
	ea, eb := a.Enums(), b.Enums()
	if len(ea) != len(eb) {
		t.Fatalf("enum count %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Name != eb[i].Name || strings.Join(ea[i].Literals, ",") != strings.Join(eb[i].Literals, ",") {
			t.Errorf("enum %s mismatch", ea[i].Name)
		}
	}
}

func sameDefault(a, b value.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	return !a.IsValid() || value.Equal(a, b)
}

func TestModelXMLRoundtrip(t *testing.T) {
	meta := fsmMeta(t)
	m1 := fsmModel(t, meta)
	var buf bytes.Buffer
	if err := m1.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModelXML(meta, &buf)
	if err != nil {
		t.Fatalf("ReadModelXML: %v", err)
	}
	assertModelEqual(t, m1, m2)
	if err := m2.Validate(); err != nil {
		t.Errorf("deserialized model invalid: %v", err)
	}
}

func assertModelEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("object count %d vs %d", a.Len(), b.Len())
	}
	oa, ob := a.Objects(), b.Objects()
	for i := range oa {
		x, y := oa[i], ob[i]
		if x.ID() != y.ID() || x.Class().Name != y.Class().Name {
			t.Fatalf("object %d identity mismatch: %s/%s vs %s/%s", i, x.ID(), x.Class().Name, y.ID(), y.Class().Name)
		}
		for _, attr := range x.Class().AllAttributes() {
			vx, _ := x.Get(attr.Name)
			vy, _ := y.Get(attr.Name)
			if vx.String() != vy.String() {
				t.Errorf("object %s attr %s: %v vs %v", x.ID(), attr.Name, vx, vy)
			}
		}
		for _, ref := range x.Class().AllReferences() {
			tx, ty := x.Refs(ref.Name), y.Refs(ref.Name)
			if len(tx) != len(ty) {
				t.Fatalf("object %s ref %s: %d vs %d targets", x.ID(), ref.Name, len(tx), len(ty))
			}
			for j := range tx {
				if tx[j].ID() != ty[j].ID() {
					t.Errorf("object %s ref %s[%d]: %s vs %s", x.ID(), ref.Name, j, tx[j].ID(), ty[j].ID())
				}
			}
		}
	}
	ra, rb := a.Roots(), b.Roots()
	if len(ra) != len(rb) {
		t.Fatalf("root count %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].ID() != rb[i].ID() {
			t.Errorf("root %d: %s vs %s", i, ra[i].ID(), rb[i].ID())
		}
	}
}

func TestReadModelErrors(t *testing.T) {
	meta := fsmMeta(t)
	cases := map[string]string{
		"wrong meta":    `<model metamodel="other"></model>`,
		"bad class":     `<model metamodel="fsm"><object id="x" class="Nope"/></model>`,
		"bad attr kind": `<model metamodel="fsm"><object id="x" class="State"><attr name="name" kind="void">v</attr></object></model>`,
		"bad attr val":  `<model metamodel="fsm"><object id="x" class="State"><attr name="name" kind="int">zz</attr></object></model>`,
		"dangling ref":  `<model metamodel="fsm"><object id="x" class="Transition"><ref name="from"><target>ghost</target></ref></object></model>`,
		"dangling root": `<model metamodel="fsm"><roots><root>ghost</root></roots></model>`,
		"dup id":        `<model metamodel="fsm"><object id="x" class="State"/><object id="x" class="State"/></model>`,
		"not xml":       `{]`,
	}
	for name, doc := range cases {
		if _, err := ReadModelXML(meta, strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadMetamodelErrors(t *testing.T) {
	cases := map[string]string{
		"bad attr type": `<metamodel name="m"><class name="A"><attribute name="x" type="void"/></class></metamodel>`,
		"bad super":     `<metamodel name="m"><class name="A" super="Z"/></metamodel>`,
		"bad target":    `<metamodel name="m"><class name="A"><reference name="r" target="Z"/></class></metamodel>`,
		"bad default":   `<metamodel name="m"><class name="A"><attribute name="x" type="int" default="zz" hasDefault="true"/></class></metamodel>`,
		"dup class":     `<metamodel name="m"><class name="A"/><class name="A"/></metamodel>`,
		"bad enum":      `<metamodel name="m"><enum name="E"></enum></metamodel>`,
		"not xml":       `<<<`,
	}
	for name, doc := range cases {
		if _, err := ReadMetamodelXML(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestForwardReferenceBetweenClasses(t *testing.T) {
	// A references B where B is declared later in the document.
	doc := `<metamodel name="fwd">
	  <class name="A"><reference name="b" target="B"/></class>
	  <class name="B"/>
	</metamodel>`
	m, err := ReadMetamodelXML(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("forward reference: %v", err)
	}
	if m.Class("A").FindReference("b").Target != "B" {
		t.Error("forward reference not resolved")
	}
}
