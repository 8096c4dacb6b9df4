package expert

import (
	"fmt"
	"maps"
	"slices"
)

// Program is the compiled half of a rule base: its templates and
// rules, each resolved once. Engines made by NewEngineFor share one
// Program and keep only their own working memory, agenda, refraction
// memory and trace, so a policy compiled once can serve any number of
// concurrent runs. A shared Program must not change: define everything
// before the first NewEngineFor, and reach per-run state from rule
// tests and actions through Engine.Env (Bindings.Env, Context.Env),
// never through a captured variable.
type Program struct {
	templates map[string]*tmpl
	tlist     []*tmpl // definition order; tmpl.id indexes it
	rules     []*compiledRule
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{templates: make(map[string]*tmpl)}
}

// clone returns a copy that can change without touching p. Compiled
// templates and rules are immutable, so the copy shares them: a
// TemplateRef of p stays valid on the copy.
func (p *Program) clone() *Program {
	return &Program{
		templates: maps.Clone(p.templates),
		tlist:     slices.Clone(p.tlist),
		rules:     slices.Clone(p.rules),
	}
}

// DefTemplate registers a template. t must not change afterwards.
func (p *Program) DefTemplate(t *Template) error {
	if _, dup := p.templates[t.Name]; dup {
		return fmt.Errorf("expert: duplicate template %q", t.Name)
	}
	ct, err := compileTemplate(t, len(p.tlist))
	if err != nil {
		return err
	}
	p.templates[t.Name] = ct
	p.tlist = append(p.tlist, ct)
	return nil
}

// DefRule registers a rule, rejecting patterns over an undefined
// template or a slot their template lacks.
func (p *Program) DefRule(r *Rule) error {
	_, err := p.defRule(r)
	return err
}

func (p *Program) defRule(r *Rule) (*compiledRule, error) {
	for _, other := range p.rules {
		if other.Name == r.Name {
			return nil, fmt.Errorf("expert: duplicate rule %q", r.Name)
		}
	}
	cr := &compiledRule{Rule: r, pats: make([]compiledPattern, len(r.Patterns))}
	for i, pat := range r.Patterns {
		t, ok := p.templates[pat.Template]
		if !ok {
			return nil, fmt.Errorf("expert: rule %q uses undefined template %q", r.Name, pat.Template)
		}
		cp := compiledPattern{t: t, binder: pat.Binder, negated: pat.Negated,
			matches: make([]slotMatch, len(pat.Matches))}
		for j, sm := range pat.Matches {
			idx, ok := t.index[sm.Slot]
			if !ok {
				return nil, fmt.Errorf("expert: rule %q: template %q has no slot %q", r.Name, pat.Template, sm.Slot)
			}
			cp.matches[j] = slotMatch{idx: idx, m: sm.M}
		}
		cr.pats[i] = cp
		cr.hasNeg = cr.hasNeg || pat.Negated
	}
	p.rules = append(p.rules, cr)
	return cr, nil
}

// Template returns the compiled template of the given name, for
// positional asserts (Engine.AssertValues).
func (p *Program) Template(name string) (TemplateRef, bool) {
	t, ok := p.templates[name]
	return TemplateRef{t}, ok
}

// TemplateRef is a template compiled into a Program, for asserting
// its facts by position: a fact's values come in the order of the
// Template's Slots.
type TemplateRef struct{ t *tmpl }
