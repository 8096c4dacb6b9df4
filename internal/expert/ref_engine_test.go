package expert

// refEngine is the reference the differential tests hold the engine
// to: the straightforward matcher the slot-indexed engine replaced,
// kept verbatim apart from its names. Facts are slot maps, bindings
// are maps cloned for every candidate fact, activation and refraction
// keys are built with fmt, and slots are found by a linear scan of the
// template. It is deliberately naive; only its observable behaviour
// (fires, output, bindings, agenda, working memory) is the contract.

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func refSlot(t *Template, name string) (*SlotDef, bool) {
	for i := range t.Slots {
		if t.Slots[i].Name == name {
			return &t.Slots[i], true
		}
	}
	return nil, false
}

type refFact struct {
	ID       int
	Template string
	Slots    map[string]Value
}

func (f *refFact) String() string {
	names := make([]string, 0, len(f.Slots))
	for n := range f.Slots {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("(" + f.Template)
	for _, n := range names {
		b.WriteString(fmt.Sprintf(" (%s %s)", n, FormatValue(f.Slots[n])))
	}
	b.WriteString(")")
	return b.String()
}

type refBindings struct {
	vars map[string]Value
}

func newRefBindings() *refBindings { return &refBindings{vars: map[string]Value{}} }

func (b *refBindings) Get(name string) (Value, bool) {
	v, ok := b.vars[name]
	return v, ok
}

func (b *refBindings) Int(name string) int64 {
	v, _ := Norm(b.vars[name]).(int64)
	return v
}

func (b *refBindings) Fact(name string) *refFact {
	f, _ := b.vars[name].(*refFact)
	return f
}

func (b *refBindings) set(name string, v Value) { b.vars[name] = v }

func (b *refBindings) clone() *refBindings {
	out := newRefBindings()
	for k, v := range b.vars {
		out.vars[k] = v
	}
	return out
}

type refMatcher func(v Value, b *refBindings) bool

func refLit(want Value) refMatcher {
	return func(v Value, _ *refBindings) bool { return Eq(v, want) }
}

func refVar(name string) refMatcher {
	return func(v Value, b *refBindings) bool {
		if prev, ok := b.Get(name); ok {
			return Eq(prev, v)
		}
		b.set(name, Norm(v))
		return true
	}
}

func refAny() refMatcher {
	return func(Value, *refBindings) bool { return true }
}

func refPred(fn func(v Value) bool) refMatcher {
	return func(v Value, _ *refBindings) bool { return fn(Norm(v)) }
}

func refBindPred(name string, fn func(v Value) bool) refMatcher {
	return func(v Value, b *refBindings) bool {
		v = Norm(v)
		if !fn(v) {
			return false
		}
		if prev, ok := b.Get(name); ok {
			return Eq(prev, v)
		}
		b.set(name, v)
		return true
	}
}

func refNot(m refMatcher) refMatcher {
	return func(v Value, b *refBindings) bool { return !m(v, b) }
}

type refSlotMatch struct {
	Slot string
	M    refMatcher
}

type refPattern struct {
	Template string
	Binder   string
	Matches  []refSlotMatch
	Negated  bool
}

func (p *refPattern) match(f *refFact, b *refBindings) bool {
	if f.Template != p.Template {
		return false
	}
	for _, sm := range p.Matches {
		v, ok := f.Slots[sm.Slot]
		if !ok {
			return false
		}
		if !sm.M(v, b) {
			return false
		}
	}
	if p.Binder != "" {
		b.set(p.Binder, f)
	}
	return true
}

type refRule struct {
	Name     string
	Salience int
	Patterns []refPattern
	Tests    []func(b *refBindings) bool
	Action   func(ctx *refContext, b *refBindings)
}

type refContext struct {
	E    *refEngine
	Rule *refRule
	IDs  []int
}

func (c *refContext) Assert(template string, slots map[string]Value) (*refFact, error) {
	return c.E.Assert(template, slots)
}

func (c *refContext) Retract(id int) { c.E.Retract(id) }

func (c *refContext) Printf(format string, args ...any) {
	fmt.Fprintf(c.E.Out, format, args...)
}

type refActivation struct {
	rule *refRule
	ids  []int
	b    *refBindings
	seq  int
}

func refActivationKey(rule string, ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return rule + "|" + strings.Join(parts, ",")
}

type refEngine struct {
	Out    io.Writer
	Echo   io.Writer
	OnFire func(FireRecord)

	templates map[string]*Template
	rules     []*refRule
	facts     map[int]*refFact
	order     []int
	nextFact  int
	seq       int

	agenda []*refActivation
	fired  map[string]bool

	trace   []FireRecord
	fireSeq int
}

func newRefEngine() *refEngine {
	return &refEngine{
		Out:       io.Discard,
		templates: make(map[string]*Template),
		facts:     make(map[int]*refFact),
		fired:     make(map[string]bool),
	}
}

func (e *refEngine) DefTemplate(t *Template) error {
	if _, dup := e.templates[t.Name]; dup {
		return fmt.Errorf("expert: duplicate template %q", t.Name)
	}
	e.templates[t.Name] = t
	return nil
}

func (e *refEngine) DefRule(r *refRule) error {
	for _, other := range e.rules {
		if other.Name == r.Name {
			return fmt.Errorf("expert: duplicate rule %q", r.Name)
		}
	}
	for _, p := range r.Patterns {
		if _, ok := e.templates[p.Template]; !ok {
			return fmt.Errorf("expert: rule %q uses undefined template %q", r.Name, p.Template)
		}
	}
	e.rules = append(e.rules, r)
	e.join(r, -1)
	return nil
}

func (e *refEngine) Assert(template string, slots map[string]Value) (*refFact, error) {
	t, ok := e.templates[template]
	if !ok {
		return nil, fmt.Errorf("expert: assert of undefined template %q", template)
	}
	full := make(map[string]Value, len(t.Slots))
	for name := range slots {
		if _, ok := refSlot(t, name); !ok {
			return nil, fmt.Errorf("expert: template %q has no slot %q", template, name)
		}
	}
	for _, sd := range t.Slots {
		v, present := slots[sd.Name]
		if !present {
			v = sd.Default
			if v == nil && sd.Multi {
				v = []Value{}
			}
		}
		v = Norm(v)
		if sd.Multi {
			if _, isList := v.([]Value); !isList {
				return nil, fmt.Errorf("expert: slot %s.%s is a multislot", template, sd.Name)
			}
		}
		full[sd.Name] = v
	}
	e.nextFact++
	f := &refFact{ID: e.nextFact, Template: template, Slots: full}
	if e.Echo != nil {
		fmt.Fprintf(e.Echo, "CLIPS> (assert %s)\n", f)
	}
	e.facts[f.ID] = f
	e.order = append(e.order, f.ID)
	e.seq++
	for _, r := range e.rules {
		e.join(r, f.ID)
	}
	return f, nil
}

func (e *refEngine) Retract(id int) {
	if _, ok := e.facts[id]; !ok {
		return
	}
	delete(e.facts, id)
	for i, fid := range e.order {
		if fid == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	kept := e.agenda[:0]
	for _, a := range e.agenda {
		uses := false
		for _, fid := range a.ids {
			if fid == id {
				uses = true
				break
			}
		}
		if !uses {
			kept = append(kept, a)
		}
	}
	e.agenda = kept
	for _, r := range e.rules {
		for i := range r.Patterns {
			if r.Patterns[i].Negated {
				e.join(r, -1)
				break
			}
		}
	}
}

func (e *refEngine) Facts() []*refFact {
	out := make([]*refFact, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.facts[id])
	}
	return out
}

func (e *refEngine) anyMatch(p *refPattern, b *refBindings) bool {
	for _, fid := range e.order {
		f := e.facts[fid]
		if f.Template != p.Template {
			continue
		}
		if p.match(f, b.clone()) {
			return true
		}
	}
	return false
}

func (e *refEngine) join(r *refRule, mustInclude int) {
	n := len(r.Patterns)
	if n == 0 {
		return
	}
	var ids []int
	var rec func(i int, b *refBindings, used bool)
	rec = func(i int, b *refBindings, used bool) {
		if i == n {
			if mustInclude >= 0 && !used {
				return
			}
			key := refActivationKey(r.Name, ids)
			if e.fired[key] {
				return
			}
			for _, a := range e.agenda {
				if refActivationKey(a.rule.Name, a.ids) == key {
					return
				}
			}
			fb := b.clone()
			for _, test := range r.Tests {
				if !test(fb) {
					return
				}
			}
			e.agenda = append(e.agenda, &refActivation{
				rule: r, ids: append([]int(nil), ids...), b: fb, seq: e.seq,
			})
			return
		}
		p := &r.Patterns[i]
		if p.Negated {
			if e.anyMatch(p, b) {
				return
			}
			rec(i+1, b, used)
			return
		}
		for _, fid := range e.order {
			f := e.facts[fid]
			if f.Template != p.Template {
				continue
			}
			dup := false
			for _, prev := range ids {
				if prev == fid {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			nb := b.clone()
			if !p.match(f, nb) {
				continue
			}
			ids = append(ids, fid)
			rec(i+1, nb, used || fid == mustInclude)
			ids = ids[:len(ids)-1]
		}
	}
	rec(0, newRefBindings(), false)
}

func (e *refEngine) Run(limit int) int {
	fired := 0
	for len(e.agenda) > 0 {
		if limit > 0 && fired >= limit {
			break
		}
		a := e.pop()
		stale := false
		for _, id := range a.ids {
			if _, ok := e.facts[id]; !ok {
				stale = true
				break
			}
		}
		if stale {
			continue
		}
		defeated := false
		for i := range a.rule.Patterns {
			p := &a.rule.Patterns[i]
			if p.Negated && e.anyMatch(p, a.b) {
				defeated = true
				break
			}
		}
		if defeated {
			continue
		}
		key := refActivationKey(a.rule.Name, a.ids)
		if e.fired[key] {
			continue
		}
		e.fired[key] = true
		e.fireSeq++
		rec := FireRecord{Seq: e.fireSeq, Rule: a.rule.Name, FactIDs: a.ids}
		e.trace = append(e.trace, rec)
		if e.OnFire != nil {
			e.OnFire(rec)
		}
		fmt.Fprintln(e.Out, rec.String())
		if a.rule.Action != nil {
			a.rule.Action(&refContext{E: e, Rule: a.rule, IDs: a.ids}, a.b)
		}
		fired++
	}
	return fired
}

func (e *refEngine) pop() *refActivation {
	best := 0
	for i := 1; i < len(e.agenda); i++ {
		a, b := e.agenda[i], e.agenda[best]
		if a.rule.Salience > b.rule.Salience ||
			(a.rule.Salience == b.rule.Salience && a.seq > b.seq) {
			best = i
		}
	}
	a := e.agenda[best]
	e.agenda = append(e.agenda[:best], e.agenda[best+1:]...)
	return a
}

func (e *refEngine) AgendaLen() int { return len(e.agenda) }

func (e *refEngine) Trace() []FireRecord { return e.trace }

func (e *refEngine) Reset() {
	e.facts = make(map[int]*refFact)
	e.order = nil
	e.agenda = nil
	e.fired = make(map[string]bool)
	e.trace = nil
	e.nextFact = 0
	e.fireSeq = 0
	e.seq = 0
}
