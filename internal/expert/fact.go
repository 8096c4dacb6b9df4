// Package expert implements a CLIPS-style forward-chaining production
// system: template facts, rules whose left-hand sides pattern-match
// working memory with variable binding, an agenda ordered by salience
// and recency, refraction, and a fire trace that lets every conclusion
// explain itself — the property the paper names as the reason to use
// an expert system over, e.g., a neural network (§6.2.1: "an expert
// system has the ability to reason about its decision making").
//
// Secpert (internal/secpert) builds the HTH security policy on top of
// this engine, mirroring the CLIPS implementation of the paper's
// Appendix A.
package expert

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a slot value: string, int64, float64, bool, or []Value
// (a multifield). Integers must be int64 — helpers normalize.
type Value = any

// Norm normalizes numeric values to int64/float64 so equality behaves.
func Norm(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	case []string:
		out := make([]Value, len(x))
		for i, s := range x {
			out[i] = s
		}
		return out
	}
	return v
}

// Eq compares two values, deeply for multifields.
func Eq(a, b Value) bool {
	a, b = Norm(a), Norm(b)
	la, aok := a.([]Value)
	lb, bok := b.([]Value)
	if aok != bok {
		return false
	}
	if aok {
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if !Eq(la[i], lb[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// FormatValue renders a value CLIPS-style: strings quoted, symbols
// (identifier-looking strings) bare, multifields parenthesized.
func FormatValue(v Value) string {
	switch x := Norm(v).(type) {
	case nil:
		return "nil"
	case string:
		if isSymbol(x) {
			return x
		}
		return fmt.Sprintf("%q", x)
	case []Value:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = FormatValue(e)
		}
		return "(" + strings.Join(parts, " ") + ")"
	default:
		return fmt.Sprint(x)
	}
}

func isSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '-' || r == '?' || r == '*' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && (r >= '0' && r <= '9'))
		if !ok {
			return false
		}
	}
	return true
}

// SlotDef declares one slot of a template.
type SlotDef struct {
	Name    string
	Multi   bool  // multislot: holds a []Value
	Default Value // used when Assert omits the slot
}

// Template is a deftemplate: a named fact shape.
type Template struct {
	Name  string
	Slots []SlotDef
}

// tmpl is a registered template with every slot name resolved to its
// position once, at DefTemplate.
type tmpl struct {
	name   string
	id     int            // position in its Program's definition order
	slots  []SlotDef      // the Template's own slice
	index  map[string]int // slot name → position in slots and Fact.vals
	byName []int          // slot positions in slot-name order, for String
}

func compileTemplate(t *Template, id int) (*tmpl, error) {
	ct := &tmpl{
		name:   t.Name,
		id:     id,
		slots:  t.Slots,
		index:  make(map[string]int, len(t.Slots)),
		byName: make([]int, len(t.Slots)),
	}
	for i, sd := range ct.slots {
		if _, dup := ct.index[sd.Name]; dup {
			return nil, fmt.Errorf("expert: template %q has duplicate slot %q", t.Name, sd.Name)
		}
		ct.index[sd.Name] = i
		ct.byName[i] = i
	}
	sort.Slice(ct.byName, func(a, b int) bool {
		return ct.slots[ct.byName[a]].Name < ct.slots[ct.byName[b]].Name
	})
	return ct, nil
}

// Fact is one working-memory element. Its slot values are stored in
// template order.
type Fact struct {
	ID       int
	Template string

	t    *tmpl
	vals []Value
	// keys are the refraction keys of the firings that used this
	// fact; Retract forgets them (see Engine.fired).
	keys []string
}

// Get returns a slot value (nil for a slot the template lacks).
func (f *Fact) Get(slot string) Value {
	if i, ok := f.t.index[slot]; ok {
		return f.vals[i]
	}
	return nil
}

// Ref renders the fact's identifier CLIPS-style: f-7.
func (f *Fact) Ref() string { return fmt.Sprintf("f-%d", f.ID) }

// String renders the fact CLIPS-style, slots sorted by name:
// (template (slot value) (slot value)).
func (f *Fact) String() string {
	var b strings.Builder
	b.WriteString("(" + f.Template)
	for _, i := range f.t.byName {
		b.WriteString(fmt.Sprintf(" (%s %s)", f.t.slots[i].Name, FormatValue(f.vals[i])))
	}
	b.WriteString(")")
	return b.String()
}
