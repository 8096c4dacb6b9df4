package expert

import (
	"fmt"
	"io"
	"strings"
)

// Clips is a textual front-end for the engine implementing the CLIPS
// subset the paper's Appendix A uses:
//
//	(deftemplate name "doc"? (slot s (default v))... (multislot m)...)
//	(defrule name "doc"? (declare (salience N))?
//	    [?f <-] (template (slot constraint)...)...
//	    (test (<op> <expr> <expr>))...
//	    =>
//	    (printout t <expr>... crlf)
//	    (assert (template (slot <expr>)...))
//	    (retract ?f)...)
//	(assert (template (slot value)...))
//	(retract <fact-id>)
//	(run [limit])  (facts)  (agenda)  (reset)
//
// Slot constraints: a literal, a variable ?x (binds / must match), or
// a multifield variable $?x. Test operators: eq neq > < >= <=.
type Clips struct {
	Eng *Engine
	Out io.Writer
}

// NewClips wraps an engine; output defaults to the engine's Out.
func NewClips(eng *Engine) *Clips {
	return &Clips{Eng: eng, Out: eng.Out}
}

// Eval parses and evaluates CLIPS source (any number of forms).
func (c *Clips) Eval(src string) error {
	forms, err := parseSexprs(src)
	if err != nil {
		return err
	}
	for _, f := range forms {
		if err := c.evalForm(f); err != nil {
			return err
		}
	}
	return nil
}

func (c *Clips) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

func (c *Clips) evalForm(f *sexpr) error {
	if !f.isList() {
		return fmt.Errorf("clips: top-level form must be a list, got %s", f)
	}
	switch f.head() {
	case "deftemplate":
		return c.evalDeftemplate(f)
	case "defrule":
		return c.evalDefrule(f)
	case "assert":
		_, err := c.evalAssert(f, nil)
		return err
	case "retract":
		return c.evalRetract(f)
	case "run":
		limit := 0
		if len(f.kids) > 1 && f.kids[1].isNum {
			limit = int(f.kids[1].num)
		}
		n := c.Eng.Run(limit)
		c.printf("%d rules fired\n", n)
		return nil
	case "facts":
		c.printf("%s", c.Eng.DumpFacts())
		return nil
	case "agenda":
		c.printf("%d activation(s)\n", c.Eng.AgendaLen())
		return nil
	case "reset":
		c.Eng.Reset()
		return nil
	}
	return fmt.Errorf("clips: unknown form %q", f.head())
}

func (c *Clips) evalDeftemplate(f *sexpr) error {
	if len(f.kids) < 2 || !f.kids[1].atom {
		return fmt.Errorf("clips: deftemplate needs a name")
	}
	t := &Template{Name: f.kids[1].sym}
	rest := f.kids[2:]
	if len(rest) > 0 && rest[0].atom && rest[0].isStr {
		rest = rest[1:] // doc string
	}
	for _, s := range rest {
		if !s.isList() || len(s.kids) < 2 || !s.kids[1].atom {
			return fmt.Errorf("clips: bad slot spec %s", s)
		}
		def := SlotDef{Name: s.kids[1].sym}
		switch s.head() {
		case "slot":
		case "multislot":
			def.Multi = true
		default:
			return fmt.Errorf("clips: bad slot kind %q", s.head())
		}
		for _, opt := range s.kids[2:] {
			if opt.isList() && opt.head() == "default" && len(opt.kids) == 2 {
				def.Default = opt.kids[1].value()
			}
		}
		t.Slots = append(t.Slots, def)
	}
	return c.Eng.DefTemplate(t)
}

// evalAssert handles (assert (template (slot value)...)); b supplies
// variable bindings when called from a rule action.
func (c *Clips) evalAssert(f *sexpr, b *Bindings) (*Fact, error) {
	if len(f.kids) != 2 || !f.kids[1].isList() {
		return nil, fmt.Errorf("clips: assert takes one fact")
	}
	fact := f.kids[1]
	tmpl := fact.head()
	if tmpl == "" {
		return nil, fmt.Errorf("clips: fact needs a template name")
	}
	slots := map[string]Value{}
	for _, sl := range fact.kids[1:] {
		if !sl.isList() || len(sl.kids) < 1 || !sl.kids[0].atom {
			return nil, fmt.Errorf("clips: bad slot %s", sl)
		}
		name := sl.kids[0].sym
		vals := make([]Value, 0, len(sl.kids)-1)
		for _, v := range sl.kids[1:] {
			ev, err := c.evalExpr(v, b)
			if err != nil {
				return nil, err
			}
			vals = append(vals, ev)
		}
		switch len(vals) {
		case 0:
			slots[name] = []Value{}
		case 1:
			slots[name] = vals[0]
		default:
			slots[name] = vals
		}
	}
	// Multislot values given as single scalars are wrapped by the
	// template check; wrap explicitly when the template says multi.
	if t, ok := c.Eng.prog.templates[tmpl]; ok {
		for name, v := range slots {
			if i, ok := t.index[name]; ok && t.slots[i].Multi {
				if _, isList := Norm(v).([]Value); !isList {
					slots[name] = []Value{Norm(v)}
				}
			}
		}
	}
	return c.Eng.Assert(tmpl, slots)
}

func (c *Clips) evalRetract(f *sexpr) error {
	if len(f.kids) != 2 || !f.kids[1].isNum {
		return fmt.Errorf("clips: retract takes a fact id")
	}
	c.Eng.Retract(int(f.kids[1].num))
	return nil
}

// evalExpr evaluates an expression atom in an action / fact context:
// literals pass through; ?vars resolve from bindings.
func (c *Clips) evalExpr(e *sexpr, b *Bindings) (Value, error) {
	if e.atom && !e.isStr && !e.isNum && strings.HasPrefix(e.sym, "?") {
		if b == nil {
			return nil, fmt.Errorf("clips: variable %s outside a rule", e.sym)
		}
		v, ok := b.Get(strings.TrimPrefix(strings.TrimPrefix(e.sym, "$"), "?"))
		if !ok {
			return nil, fmt.Errorf("clips: unbound variable %s", e.sym)
		}
		return v, nil
	}
	if e.atom && strings.HasPrefix(e.sym, "$?") {
		return c.evalExpr(&sexpr{atom: true, sym: e.sym[1:]}, b)
	}
	if e.atom {
		return e.value(), nil
	}
	return nil, fmt.Errorf("clips: cannot evaluate %s in this context", e)
}

func (c *Clips) evalDefrule(f *sexpr) error {
	if len(f.kids) < 2 || !f.kids[1].atom {
		return fmt.Errorf("clips: defrule needs a name")
	}
	r := &Rule{Name: f.kids[1].sym}
	rest := f.kids[2:]
	if len(rest) > 0 && rest[0].atom && rest[0].isStr {
		r.Doc = rest[0].str
		rest = rest[1:]
	}

	// Split at =>.
	arrow := -1
	for i, k := range rest {
		if k.atom && k.sym == "=>" {
			arrow = i
			break
		}
	}
	if arrow < 0 {
		return fmt.Errorf("clips: defrule %s has no =>", r.Name)
	}
	lhs, rhs := rest[:arrow], rest[arrow+1:]

	// LHS: declare / binder / pattern / test.
	var pendingBinder string
	for i := 0; i < len(lhs); i++ {
		k := lhs[i]
		if k.atom {
			// "?f <- (pattern ...)" arrives as atoms ?f and <-.
			if strings.HasPrefix(k.sym, "?") {
				pendingBinder = strings.TrimPrefix(k.sym, "?")
				continue
			}
			if k.sym == "<-" {
				continue
			}
			return fmt.Errorf("clips: unexpected %s in rule LHS", k.sym)
		}
		switch k.head() {
		case "declare":
			for _, d := range k.kids[1:] {
				if d.isList() && d.head() == "salience" && len(d.kids) == 2 && d.kids[1].isNum {
					r.Salience = int(d.kids[1].num)
				}
			}
		case "test":
			test, err := c.compileTest(k)
			if err != nil {
				return fmt.Errorf("clips: rule %s: %w", r.Name, err)
			}
			r.Tests = append(r.Tests, test)
		case "not":
			if len(k.kids) != 2 || !k.kids[1].isList() {
				return fmt.Errorf("clips: rule %s: (not ...) takes one pattern", r.Name)
			}
			pat, err := c.compilePattern(k.kids[1], "")
			if err != nil {
				return fmt.Errorf("clips: rule %s: %w", r.Name, err)
			}
			pat.Negated = true
			r.Patterns = append(r.Patterns, pat)
		default:
			pat, err := c.compilePattern(k, pendingBinder)
			pendingBinder = ""
			if err != nil {
				return fmt.Errorf("clips: rule %s: %w", r.Name, err)
			}
			r.Patterns = append(r.Patterns, pat)
		}
	}

	// RHS: compile actions.
	actions, err := c.compileActions(rhs)
	if err != nil {
		return fmt.Errorf("clips: rule %s: %w", r.Name, err)
	}
	r.Action = actions
	return c.Eng.DefRule(r)
}

func (c *Clips) compilePattern(k *sexpr, binder string) (Pattern, error) {
	tmpl := k.head()
	if tmpl == "" {
		return Pattern{}, fmt.Errorf("bad pattern %s", k)
	}
	pat := Pattern{Template: tmpl, Binder: binder}
	for _, sl := range k.kids[1:] {
		if !sl.isList() || len(sl.kids) != 2 || !sl.kids[0].atom {
			return Pattern{}, fmt.Errorf("bad slot pattern %s", sl)
		}
		slot := sl.kids[0].sym
		cons := sl.kids[1]
		var m Matcher
		switch {
		case cons.atom && strings.HasPrefix(cons.sym, "$?"):
			m = Var(strings.TrimPrefix(cons.sym, "$?"))
		case cons.atom && strings.HasPrefix(cons.sym, "?"):
			m = Var(strings.TrimPrefix(cons.sym, "?"))
		default:
			m = Lit(cons.value())
		}
		pat.Matches = append(pat.Matches, S(slot, m))
	}
	return pat, nil
}

// compileTest builds a test function from (test (<op> a b)).
func (c *Clips) compileTest(k *sexpr) (func(*Bindings) bool, error) {
	if len(k.kids) != 2 || !k.kids[1].isList() {
		return nil, fmt.Errorf("bad test %s", k)
	}
	cmp := k.kids[1]
	op := cmp.head()
	if len(cmp.kids) != 3 {
		return nil, fmt.Errorf("test %s needs two operands", op)
	}
	a, b := cmp.kids[1], cmp.kids[2]
	return func(bd *Bindings) bool {
		av, errA := c.evalExpr(a, bd)
		bv, errB := c.evalExpr(b, bd)
		if errA != nil || errB != nil {
			return false
		}
		switch op {
		case "eq":
			return Eq(av, bv)
		case "neq":
			return !Eq(av, bv)
		case ">", "<", ">=", "<=":
			ai, aok := Norm(av).(int64)
			bi, bok := Norm(bv).(int64)
			if !aok || !bok {
				return false
			}
			switch op {
			case ">":
				return ai > bi
			case "<":
				return ai < bi
			case ">=":
				return ai >= bi
			default:
				return ai <= bi
			}
		}
		return false
	}, nil
}

// compileActions builds the RHS executor.
func (c *Clips) compileActions(rhs []*sexpr) (func(*Context, *Bindings), error) {
	type action func(ctx *Context, b *Bindings) error
	var acts []action
	for _, k := range rhs {
		if !k.isList() {
			return nil, fmt.Errorf("bad action %s", k)
		}
		k := k
		switch k.head() {
		case "printout":
			if len(k.kids) < 2 {
				return nil, fmt.Errorf("printout needs a router")
			}
			exprs := k.kids[2:] // skip the router (t)
			acts = append(acts, func(ctx *Context, b *Bindings) error {
				for _, e := range exprs {
					if e.atom && e.sym == "crlf" {
						ctx.Printf("\n")
						continue
					}
					v, err := c.evalExpr(e, b)
					if err != nil {
						return err
					}
					if s, ok := v.(string); ok {
						ctx.Printf("%s", s)
					} else {
						ctx.Printf("%s", FormatValue(v))
					}
				}
				return nil
			})
		case "assert":
			acts = append(acts, func(ctx *Context, b *Bindings) error {
				_, err := c.evalAssert(k, b)
				return err
			})
		case "retract":
			if len(k.kids) != 2 || !k.kids[1].atom || !strings.HasPrefix(k.kids[1].sym, "?") {
				return nil, fmt.Errorf("retract in actions takes ?binder")
			}
			name := strings.TrimPrefix(k.kids[1].sym, "?")
			acts = append(acts, func(ctx *Context, b *Bindings) error {
				f := b.Fact(name)
				if f == nil {
					return fmt.Errorf("clips: ?%s is not a fact binder", name)
				}
				ctx.Retract(f.ID)
				return nil
			})
		default:
			return nil, fmt.Errorf("unsupported action %q", k.head())
		}
	}
	return func(ctx *Context, b *Bindings) {
		for _, a := range acts {
			if err := a(ctx, b); err != nil {
				ctx.Printf("[rule error: %v]\n", err)
				return
			}
		}
	}, nil
}
