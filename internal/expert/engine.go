package expert

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Rule is a defrule: patterns and tests on the left-hand side, an
// action on the right.
type Rule struct {
	Name     string
	Doc      string
	Salience int
	Patterns []Pattern
	// Tests run after all patterns matched, over the bindings
	// (CLIPS test conditional elements). They must be pure: they may
	// not change the engine or keep b, which is the engine's match
	// stack. They may read b.Env().
	Tests []func(b *Bindings) bool
	// Action fires with the matched bindings.
	Action func(ctx *Context, b *Bindings)
}

// Context is handed to rule actions: it can assert and retract facts
// and print to the engine's output.
type Context struct {
	E    *Engine
	Rule *Rule
	IDs  []int // the matched fact ids, pattern order
}

// Assert adds a fact from within an action.
func (c *Context) Assert(template string, slots map[string]Value) (*Fact, error) {
	return c.E.Assert(template, slots)
}

// Retract removes a fact from within an action.
func (c *Context) Retract(id int) { c.E.Retract(id) }

// Printf writes to the engine's output stream.
func (c *Context) Printf(format string, args ...any) {
	fmt.Fprintf(c.E.Out, format, args...)
}

// FireRecord is one entry of the fire trace.
type FireRecord struct {
	Seq     int
	Rule    string
	FactIDs []int
}

// String renders the record CLIPS-style: "FIRE 1 check_execve: f-43,f-42,f-5".
func (fr FireRecord) String() string {
	refs := make([]string, len(fr.FactIDs))
	for i, id := range fr.FactIDs {
		refs[i] = fmt.Sprintf("f-%d", id)
	}
	return fmt.Sprintf("FIRE %d %s: %s", fr.Seq, fr.Rule, strings.Join(refs, ","))
}

type activation struct {
	rule *compiledRule
	ids  []int
	b    Bindings
	seq  int // recency: assertion sequence that created it
}

// compiledRule is a Rule with its patterns resolved at DefRule.
type compiledRule struct {
	*Rule
	pats   []compiledPattern
	hasNeg bool // some pattern is a negative conditional element
}

// Engine is the inference engine: working memory + rules + agenda.
type Engine struct {
	// Out receives rule printout (warnings); defaults to io.Discard.
	Out io.Writer
	// Echo, when non-nil, receives a CLIPS-transcript line for every
	// assertion ("CLIPS> (assert (template ...))"), reproducing the
	// paper's Appendix A.1 interaction log.
	Echo io.Writer
	// OnFire, when non-nil, observes every rule firing, invoked after
	// the record joins the fire trace and before the rule action runs.
	OnFire func(FireRecord)
	// Env is the run state the rules act on: rule tests and actions
	// read it through Bindings.Env and Context.E, which lets one
	// compiled Program serve many engines at once.
	Env any

	// prog holds the templates and rules. Unless ownProg, it is
	// shared with other engines, and DefTemplate/DefRule copy it
	// before the first change.
	prog     *Program
	ownProg  bool
	facts    map[int]*Fact
	order    []*Fact // assertion order, so ascending ids
	nextFact int
	seq      int

	agenda []*activation
	// fired is the refraction memory, keyed by refractionKey. Fact
	// ids are never reused before Reset, so a key naming a retracted
	// fact can never match again: Retract drops it (Fact.keys).
	fired map[string]bool

	trace   []FireRecord
	fireSeq int

	// Match scratch owned by join. It is safe to share because join
	// is never re-entered: rule tests are pure, and actions (which may
	// Assert and so join) run from Run, never from inside a join.
	stack Bindings // bindings of the candidate tuple being extended
	ids   []int    // its positive-pattern fact ids, in pattern order
	key   []byte   // refraction key buffer (join, and Run between actions)
}

// NewEngine returns an empty engine with a program of its own.
func NewEngine() *Engine {
	e := NewEngineFor(NewProgram())
	e.ownProg = true
	return e
}

// NewEngineFor returns an empty engine running the shared program p.
// p is never changed through the engine: DefTemplate and DefRule give
// the engine a private copy first.
func NewEngineFor(p *Program) *Engine {
	e := &Engine{
		Out:   io.Discard,
		prog:  p,
		facts: make(map[int]*Fact),
		fired: make(map[string]bool),
	}
	e.stack.e = e
	return e
}

// own gives the engine a program it may change.
func (e *Engine) own() {
	if !e.ownProg {
		e.prog = e.prog.clone()
		e.ownProg = true
	}
}

// DefTemplate registers a template. t must not change afterwards.
func (e *Engine) DefTemplate(t *Template) error {
	e.own()
	return e.prog.DefTemplate(t)
}

// DefRule registers a rule, rejecting patterns over an undefined
// template or a slot their template lacks. Existing facts are
// immediately eligible.
func (e *Engine) DefRule(r *Rule) error {
	e.own()
	cr, err := e.prog.defRule(r)
	if err != nil {
		return err
	}
	// Activate against current working memory.
	e.join(cr, -1)
	return nil
}

// Assert adds a fact, validating slots against the template and
// applying defaults, then computes new activations. The slot map is
// not retained. It is a wrapper over AssertValues.
func (e *Engine) Assert(template string, slots map[string]Value) (*Fact, error) {
	t, ok := e.prog.templates[template]
	if !ok {
		return nil, fmt.Errorf("expert: assert of undefined template %q", template)
	}
	for name := range slots {
		if _, ok := t.index[name]; !ok {
			return nil, fmt.Errorf("expert: template %q has no slot %q", template, name)
		}
	}
	vals := make([]Value, len(t.slots))
	for i, sd := range t.slots {
		v, present := slots[sd.Name]
		if !present {
			v = sd.Default
			if v == nil && sd.Multi {
				v = []Value{}
			}
		}
		vals[i] = v
	}
	return e.assert(t, vals)
}

// AssertValues adds a fact of template t whose slot values are given
// by position, in the order of the Template's Slots, then computes new
// activations. Every position must be filled: no default applies. The
// engine keeps vals.
func (e *Engine) AssertValues(t TemplateRef, vals []Value) (*Fact, error) {
	ct := t.t
	if ct == nil || ct.id >= len(e.prog.tlist) || e.prog.tlist[ct.id] != ct {
		return nil, fmt.Errorf("expert: assert of a template the engine's program does not define")
	}
	if len(vals) != len(ct.slots) {
		return nil, fmt.Errorf("expert: template %q has %d slots, got %d values", ct.name, len(ct.slots), len(vals))
	}
	return e.assert(ct, vals)
}

// assert is the one assert path: it normalizes vals in place, checks
// multislots, and joins the new fact against every rule.
func (e *Engine) assert(t *tmpl, vals []Value) (*Fact, error) {
	for i, sd := range t.slots {
		v := Norm(vals[i])
		if sd.Multi {
			if _, isList := v.([]Value); !isList {
				return nil, fmt.Errorf("expert: slot %s.%s is a multislot", t.name, sd.Name)
			}
		}
		vals[i] = v
	}
	e.nextFact++
	f := &Fact{ID: e.nextFact, Template: t.name, t: t, vals: vals}
	if e.Echo != nil {
		fmt.Fprintf(e.Echo, "CLIPS> (assert %s)\n", f)
	}
	e.facts[f.ID] = f
	e.order = append(e.order, f)
	e.seq++
	for _, r := range e.prog.rules {
		e.join(r, f.ID)
	}
	return f, nil
}

// Retract removes a fact, any agenda activations that used it, and
// the refraction entries that name it.
func (e *Engine) Retract(id int) {
	f, ok := e.facts[id]
	if !ok {
		return
	}
	delete(e.facts, id)
	for _, k := range f.keys {
		delete(e.fired, k)
	}
	f.keys = nil
	if i := slices.Index(e.order, f); i >= 0 {
		e.order = slices.Delete(e.order, i, i+1)
	}
	e.agenda = slices.DeleteFunc(e.agenda, func(a *activation) bool {
		return slices.Contains(a.ids, id)
	})
	// Retraction may re-enable negative conditional elements;
	// recompute the rules that use them (refraction and the agenda
	// dedup keep this idempotent).
	for _, r := range e.prog.rules {
		if r.hasNeg {
			e.join(r, -1)
		}
	}
}

// Fact returns the fact with the given id.
func (e *Engine) Fact(id int) (*Fact, bool) {
	f, ok := e.facts[id]
	return f, ok
}

// Facts returns all facts in assertion order.
func (e *Engine) Facts() []*Fact { return slices.Clone(e.order) }

// anyMatch reports whether any current fact matches the pattern under
// the bindings b (used for negative conditional elements). The probe
// bindings are truncated away, leaving b as it was.
func (e *Engine) anyMatch(p *compiledPattern, b *Bindings) bool {
	mark := len(b.vars)
	for _, f := range e.order {
		if f.t != p.t {
			continue
		}
		ok := p.match(f, b)
		b.truncate(mark)
		if ok {
			return true
		}
	}
	return false
}

// join enumerates complete pattern matches: rules in definition order
// (by the callers), facts in assertion order. When mustInclude >= 0,
// only tuples containing that fact id are produced (incremental
// activation on assert); -1 enumerates everything (new rule, or a
// recomputation after retract re-enabled negative elements).
// Negated patterns consume no fact: they hold when nothing matches,
// and are re-verified at fire time (asserts between activation and
// firing can defeat them).
//
// Candidates bind on the engine-owned stack e.stack: each one records
// a mark and truncates back to it when it fails or has been explored,
// so only an activation actually created copies its bindings.
func (e *Engine) join(r *compiledRule, mustInclude int) {
	if len(r.pats) == 0 {
		return
	}
	e.stack.truncate(0)
	e.ids = e.ids[:0]
	e.extend(r, 0, mustInclude, false)
}

// extend matches pattern i onward against the partial tuple on the
// stack.
func (e *Engine) extend(r *compiledRule, i, mustInclude int, used bool) {
	if i == len(r.pats) {
		if mustInclude >= 0 && !used {
			return
		}
		e.key = refractionKey(e.key[:0], r.Name, e.ids)
		if e.fired[string(e.key)] {
			return
		}
		for _, a := range e.agenda {
			if a.rule == r && slices.Equal(a.ids, e.ids) {
				return
			}
		}
		for _, test := range r.Tests {
			if !test(&e.stack) {
				return
			}
		}
		e.agenda = append(e.agenda, &activation{
			rule: r, ids: slices.Clone(e.ids),
			b: Bindings{vars: slices.Clone(e.stack.vars), e: e}, seq: e.seq,
		})
		return
	}
	p := &r.pats[i]
	if p.negated {
		if !e.anyMatch(p, &e.stack) {
			e.extend(r, i+1, mustInclude, used)
		}
		return
	}
	for _, f := range e.order {
		if f.t != p.t || slices.Contains(e.ids, f.ID) {
			continue
		}
		mark := len(e.stack.vars)
		if p.match(f, &e.stack) {
			e.ids = append(e.ids, f.ID)
			e.extend(r, i+1, mustInclude, used || f.ID == mustInclude)
			e.ids = e.ids[:len(e.ids)-1]
		}
		e.stack.truncate(mark)
	}
}

// refractionKey appends the refraction key of (rule, ids) to buf:
// "rule|id,id,...".
func refractionKey(buf []byte, rule string, ids []int) []byte {
	buf = append(buf, rule...)
	buf = append(buf, '|')
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return buf
}

// Run fires agenda activations until the agenda empties or limit rules
// have fired (limit <= 0 means no limit). Returns the number fired.
func (e *Engine) Run(limit int) int {
	fired := 0
	for len(e.agenda) > 0 {
		if limit > 0 && fired >= limit {
			break
		}
		a := e.pop()
		// The activation may reference retracted facts if the agenda
		// was manipulated; pop guards, but double-check.
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
		// Re-verify negative conditional elements: a fact asserted
		// after this activation was created may defeat them.
		defeated := false
		for i := range a.rule.pats {
			p := &a.rule.pats[i]
			if p.negated && e.anyMatch(p, &a.b) {
				defeated = true
				break
			}
		}
		if defeated {
			continue
		}
		e.key = refractionKey(e.key[:0], a.rule.Name, a.ids)
		if e.fired[string(e.key)] {
			continue
		}
		key := string(e.key)
		e.fired[key] = true
		for _, id := range a.ids {
			f := e.facts[id]
			f.keys = append(f.keys, key)
		}
		e.fireSeq++
		rec := FireRecord{Seq: e.fireSeq, Rule: a.rule.Name, FactIDs: a.ids}
		e.trace = append(e.trace, rec)
		if e.OnFire != nil {
			e.OnFire(rec)
		}
		if e.Out != io.Discard {
			fmt.Fprintln(e.Out, rec.String())
		}
		if a.rule.Action != nil {
			a.rule.Action(&Context{E: e, Rule: a.rule.Rule, IDs: a.ids}, &a.b)
		}
		fired++
	}
	return fired
}

// pop removes the highest-priority activation: salience desc, then
// recency desc (depth strategy).
func (e *Engine) pop() *activation {
	best := 0
	for i := 1; i < len(e.agenda); i++ {
		a, b := e.agenda[i], e.agenda[best]
		if a.rule.Salience > b.rule.Salience ||
			(a.rule.Salience == b.rule.Salience && a.seq > b.seq) {
			best = i
		}
	}
	a := e.agenda[best]
	e.agenda = slices.Delete(e.agenda, best, best+1)
	return a
}

// AgendaLen reports pending activations.
func (e *Engine) AgendaLen() int { return len(e.agenda) }

// Trace returns the fire history.
func (e *Engine) Trace() []FireRecord { return e.trace }

// Reset clears working memory, the agenda, refraction memory and the
// trace, keeping templates and rules.
func (e *Engine) Reset() {
	e.facts = make(map[int]*Fact)
	e.order = nil
	e.agenda = nil
	e.fired = make(map[string]bool)
	e.trace = nil
	e.nextFact = 0
	e.fireSeq = 0
	e.seq = 0
}

// DumpFacts renders working memory, in id order, for diagnostics.
func (e *Engine) DumpFacts() string {
	var b strings.Builder
	for _, f := range e.order {
		fmt.Fprintf(&b, "f-%d %s\n", f.ID, f)
	}
	return b.String()
}
