package core

import (
	"fmt"

	"repro/internal/protocol"
)

// This file keeps the resolver HandleEvent used before the dispatch
// table, verbatim but for the names: every event expands the binding
// templates, looks the element up by key string (scanning the elements
// for an arrow) and acts on the scene through its id index. It is the
// reference the table is compared with (gdm_table_test.go).

// refExpand substitutes event fields into a key template.
func refExpand(tmpl string, ev protocol.Event) string {
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

// refHandleEvent is the reference HandleEvent.
func (g *GDM) refHandleEvent(ev protocol.Event) ([]Reaction, error) {
	if g.scene == nil {
		return nil, fmt.Errorf("core: GDM %s has no scene (call BuildScene)", g.Name)
	}
	prev := g.state
	g.state = Reacting
	defer func() { g.state = prev }()
	g.Commands++

	var applied []Reaction
	for _, b := range g.bindings {
		if b.Event != ev.Type {
			continue
		}
		if b.SourceEq != "" && b.SourceEq != ev.Source {
			continue
		}
		el := g.refResolveElement(b, ev)
		if el == nil {
			continue
		}
		if err := g.refApply(b, el, ev); err != nil {
			return applied, err
		}
		applied = append(applied, Reaction{Binding: b.Name, Element: el.ID, Kind: b.Reaction})
		g.Reactions++
	}
	if len(applied) == 0 {
		g.Unbound++
	}
	return applied, nil
}

func (g *GDM) refResolveElement(b Binding, ev protocol.Event) *Element {
	if b.ArrowMatch {
		from := refExpand(b.FromKey, ev)
		to := refExpand(b.ToKey, ev)
		for _, el := range g.elements {
			if IsConnector(el.Pattern) && el.From == from && el.To == to {
				return el
			}
		}
		return nil
	}
	return g.index[refExpand(b.KeyTemplate, ev)]
}

func (g *GDM) refApply(b Binding, el *Element, ev protocol.Event) error {
	switch b.Reaction {
	case ReactHighlight:
		return g.scene.SetHighlight(el.ID, true)
	case ReactHighlightExclusive:
		for _, sib := range g.elements {
			if sib.Group == el.Group && sib.ID != el.ID {
				if err := g.scene.SetHighlight(sib.ID, false); err != nil {
					return err
				}
			}
		}
		return g.scene.SetHighlight(el.ID, true)
	case ReactBadge:
		badge := ev.Arg2
		if badge == "" {
			badge = formatBadge(ev.Value)
		}
		return g.scene.SetBadge(el.ID, badge)
	case ReactPulse:
		if prev := g.lastPulse[el.Group]; prev != "" && prev != el.ID {
			if err := g.scene.SetHighlight(prev, false); err != nil {
				return err
			}
		}
		g.lastPulse[el.Group] = el.ID
		return g.scene.SetHighlight(el.ID, true)
	}
	return fmt.Errorf("core: binding %s: unknown reaction", b.Name)
}
