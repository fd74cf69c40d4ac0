package metamodel

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/value"
)

// This file implements the persistence format of the substrate: an
// XMI-flavoured XML form (the paper's prototype stores EMF models as XMI).
// It carries metamodels and models losslessly and is covered by roundtrip
// tests.

// ---- wire DTOs ----

type xmlMetamodel struct {
	XMLName xml.Name   `xml:"metamodel"`
	Name    string     `xml:"name,attr"`
	URI     string     `xml:"uri,attr"`
	Enums   []xmlEnum  `xml:"enum"`
	Classes []xmlClass `xml:"class"`
}

type xmlEnum struct {
	Name     string   `xml:"name,attr"`
	Literals []string `xml:"literal"`
}

type xmlClass struct {
	Name     string    `xml:"name,attr"`
	Abstract bool      `xml:"abstract,attr,omitempty"`
	Super    string    `xml:"super,attr,omitempty"`
	Attrs    []xmlAttr `xml:"attribute"`
	Refs     []xmlRef  `xml:"reference"`
}

type xmlAttr struct {
	Name     string `xml:"name,attr"`
	Type     string `xml:"type,attr"`
	Enum     string `xml:"enum,attr,omitempty"`
	Default  string `xml:"default,attr,omitempty"`
	HasDef   bool   `xml:"hasDefault,attr,omitempty"`
	Required bool   `xml:"required,attr,omitempty"`
}

type xmlRef struct {
	Name        string `xml:"name,attr"`
	Target      string `xml:"target,attr"`
	Containment bool   `xml:"containment,attr,omitempty"`
	Lower       int    `xml:"lower,attr,omitempty"`
	Upper       int    `xml:"upper,attr,omitempty"`
}

type xmlModel struct {
	XMLName   xml.Name    `xml:"model"`
	Metamodel string      `xml:"metamodel,attr"`
	Roots     []string    `xml:"roots>root"`
	Objects   []xmlObject `xml:"object"`
}

type xmlObject struct {
	ID    string       `xml:"id,attr"`
	Class string       `xml:"class,attr"`
	Attrs []xmlObjAttr `xml:"attr"`
	Refs  []xmlObjRef  `xml:"ref"`
}

type xmlObjAttr struct {
	Name  string `xml:"name,attr"`
	Kind  string `xml:"kind,attr"`
	Value string `xml:",chardata"`
}

type xmlObjRef struct {
	Name    string   `xml:"name,attr"`
	Targets []string `xml:"target"`
}

// ---- metamodel encode/decode ----

func (m *Metamodel) toDTO() xmlMetamodel {
	dto := xmlMetamodel{Name: m.Name, URI: m.URI}
	for _, e := range m.Enums() {
		dto.Enums = append(dto.Enums, xmlEnum{Name: e.Name, Literals: e.Literals})
	}
	for _, c := range m.Classes() {
		xc := xmlClass{Name: c.Name, Abstract: c.Abstract}
		if c.super != nil {
			xc.Super = c.super.Name
		}
		for _, a := range c.attrs {
			xa := xmlAttr{Name: a.Name, Type: a.Type.String(), Enum: a.Enum, Required: a.Required}
			if a.Default.IsValid() {
				xa.Default = a.Default.String()
				xa.HasDef = true
			}
			xc.Attrs = append(xc.Attrs, xa)
		}
		for _, r := range c.refs {
			xc.Refs = append(xc.Refs, xmlRef{
				Name: r.Name, Target: r.Target, Containment: r.Containment,
				Lower: r.Lower, Upper: r.Upper,
			})
		}
		dto.Classes = append(dto.Classes, xc)
	}
	return dto
}

func metamodelFromDTO(dto xmlMetamodel) (*Metamodel, error) {
	m := NewMetamodel(dto.Name, dto.URI)
	for _, e := range dto.Enums {
		if _, err := m.AddEnum(e.Name, e.Literals...); err != nil {
			return nil, err
		}
	}
	for _, xc := range dto.Classes {
		c, err := m.AddClass(xc.Name, xc.Abstract, xc.Super)
		if err != nil {
			return nil, err
		}
		for _, xa := range xc.Attrs {
			k, err := value.ParseKind(xa.Type)
			if err != nil {
				return nil, fmt.Errorf("metamodel: class %s attr %s: %w", xc.Name, xa.Name, err)
			}
			a := Attribute{Name: xa.Name, Type: k, Enum: xa.Enum, Required: xa.Required}
			if xa.HasDef {
				d, err := value.Parse(k, xa.Default)
				if err != nil {
					return nil, fmt.Errorf("metamodel: class %s attr %s default: %w", xc.Name, xa.Name, err)
				}
				a.Default = d
			}
			if _, err := c.AddAttribute(a); err != nil {
				return nil, err
			}
		}
	}
	// Second pass for references so forward targets resolve.
	for _, xc := range dto.Classes {
		c := m.Class(xc.Name)
		for _, xr := range xc.Refs {
			r := Reference{Name: xr.Name, Target: xr.Target, Containment: xr.Containment, Lower: xr.Lower, Upper: xr.Upper}
			if _, err := c.AddReference(r); err != nil {
				return nil, err
			}
		}
	}
	return m, m.Validate()
}

// WriteXML serializes the metamodel as indented XML.
func (m *Metamodel) WriteXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(m.toDTO()); err != nil {
		return fmt.Errorf("metamodel: xml encode: %w", err)
	}
	return enc.Flush()
}

// ReadMetamodelXML parses a metamodel from XML.
func ReadMetamodelXML(r io.Reader) (*Metamodel, error) {
	var dto xmlMetamodel
	if err := xml.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("metamodel: xml decode: %w", err)
	}
	return metamodelFromDTO(dto)
}

// ---- model encode/decode ----

func (m *Model) toDTO() xmlModel {
	dto := xmlModel{Metamodel: m.Meta.Name}
	for _, r := range m.roots {
		dto.Roots = append(dto.Roots, r.id)
	}
	for _, o := range m.Objects() {
		xo := xmlObject{ID: o.id, Class: o.class.Name}
		for _, a := range o.class.AllAttributes() {
			v, ok := o.attrs[a.Name]
			if !ok {
				continue
			}
			xo.Attrs = append(xo.Attrs, xmlObjAttr{Name: a.Name, Kind: v.Kind().String(), Value: v.String()})
		}
		for _, r := range o.class.AllReferences() {
			targets := o.refs[r.Name]
			if len(targets) == 0 {
				continue
			}
			xr := xmlObjRef{Name: r.Name}
			for _, t := range targets {
				xr.Targets = append(xr.Targets, t.id)
			}
			xo.Refs = append(xo.Refs, xr)
		}
		dto.Objects = append(dto.Objects, xo)
	}
	return dto
}

func modelFromDTO(meta *Metamodel, dto xmlModel) (*Model, error) {
	if dto.Metamodel != meta.Name {
		return nil, fmt.Errorf("metamodel: model references metamodel %q, have %q", dto.Metamodel, meta.Name)
	}
	m := NewModel(meta)
	// Pass 1: create all objects.
	for _, xo := range dto.Objects {
		if _, err := m.NewObjectID(xo.Class, xo.ID); err != nil {
			return nil, err
		}
	}
	// Pass 2: attributes and references.
	for _, xo := range dto.Objects {
		o := m.Lookup(xo.ID)
		for _, xa := range xo.Attrs {
			k, err := value.ParseKind(xa.Kind)
			if err != nil {
				return nil, fmt.Errorf("metamodel: object %s attr %s: %w", xo.ID, xa.Name, err)
			}
			v, err := value.Parse(k, xa.Value)
			if err != nil {
				return nil, fmt.Errorf("metamodel: object %s attr %s: %w", xo.ID, xa.Name, err)
			}
			if err := o.Set(xa.Name, v); err != nil {
				return nil, err
			}
		}
		for _, xr := range xo.Refs {
			for _, tid := range xr.Targets {
				t := m.Lookup(tid)
				if t == nil {
					return nil, fmt.Errorf("metamodel: object %s ref %s: dangling target %q", xo.ID, xr.Name, tid)
				}
				if err := o.Append(xr.Name, t); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, rid := range dto.Roots {
		r := m.Lookup(rid)
		if r == nil {
			return nil, fmt.Errorf("metamodel: dangling root %q", rid)
		}
		if err := m.AddRoot(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// WriteXML serializes the model as indented XML.
func (m *Model) WriteXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(m.toDTO()); err != nil {
		return fmt.Errorf("metamodel: model xml encode: %w", err)
	}
	return enc.Flush()
}

// ReadModelXML parses a model from XML, resolving it against meta.
func ReadModelXML(meta *Metamodel, r io.Reader) (*Model, error) {
	var dto xmlModel
	if err := xml.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("metamodel: model xml decode: %w", err)
	}
	return modelFromDTO(meta, dto)
}
