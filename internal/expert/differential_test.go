package expert

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The differential oracle: a scenario (random templates, random rules,
// a random assert/retract/run sequence) decoded from a byte string
// runs on the engine and on refEngine, and after every step the two
// must agree byte for byte on fire records, Out and Echo text, the
// bindings each action sees, the agenda length and working memory.
// Every scenario runs twice: once asserting through the slot-map
// wrapper (Engine.Assert), once through the positional core
// (Engine.AssertValues); the reference always takes the slot map.

// byteSource decodes a scenario from fuzz input; past the end it
// yields zeros, so every input decodes to some finite scenario.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

func (s *byteSource) intn(n int) int { return s.next() % n }

var (
	diffVars    = []string{"x", "y", "z"}
	diffBinders = []string{"f", "g", "x"} // "x" deliberately shadows a variable
	diffPreds   = []func(Value) bool{
		func(v Value) bool { i, ok := v.(int64); return ok && i%2 == 0 },
		func(v Value) bool { _, ok := v.(string); return ok },
		func(v Value) bool { return !Eq(v, int64(0)) },
	}
)

// diffValue maps a code to a slot value: small ints, two symbols and
// multifields, so joins and literal matches hit often.
func diffValue(code int, multi bool) Value {
	if multi {
		switch code % 3 {
		case 0:
			return []Value{}
		case 1:
			return []Value{"a"}
		default:
			return []Value{int64(1), "b"}
		}
	}
	switch code % 5 {
	case 0, 1, 2:
		return int64(code % 5)
	case 3:
		return "a"
	}
	return "b"
}

type matchSpec struct {
	slot, kind, val, v, pred int
}

type patSpec struct {
	tmpl    int
	binder  string
	negated bool
	matches []matchSpec
}

type testSpec struct {
	kind int
	a, b string
	c    int64
}

type slotSrc struct {
	slot int
	val  int    // literal code when from == ""
	from string // variable to copy
}

type actSpec struct {
	kind  int
	tmpl  int
	name  string
	slots []slotSrc
}

type ruleSpec struct {
	name     string
	salience int
	pats     []patSpec
	tests    []testSpec
	acts     []actSpec
}

type opSpec struct {
	kind  int // 0 assert, 1 retract, 2 run, 3 define next rule, 4 reset
	tmpl  int
	slots []slotSrc
	bad   int // 1: unknown slot, 2: scalar into a multislot
	id    int
	limit int
}

type diffScenario struct {
	tmpls   []*Template
	rules   []ruleSpec
	upfront int // rules defined before the first op
	ops     []opSpec
	budget  int // facts actions may assert, per engine
}

func decodeScenario(s *byteSource) *diffScenario {
	sc := &diffScenario{budget: 4}
	nt := 1 + s.intn(2)
	for ti := 0; ti < nt; ti++ {
		t := &Template{Name: fmt.Sprintf("t%d", ti)}
		ns := 1 + s.intn(3)
		for si := 0; si < ns; si++ {
			sd := SlotDef{Name: fmt.Sprintf("s%d", si)}
			switch s.intn(4) {
			case 0:
				sd.Multi = true
			case 1:
				sd.Default = int64(s.intn(3))
			}
			t.Slots = append(t.Slots, sd)
		}
		sc.tmpls = append(sc.tmpls, t)
	}
	nr := 1 + s.intn(3)
	for ri := 0; ri < nr; ri++ {
		r := ruleSpec{name: fmt.Sprintf("r%d", ri), salience: s.intn(3) - 1}
		np := 1 + s.intn(3)
		for pi := 0; pi < np; pi++ {
			p := patSpec{tmpl: s.intn(len(sc.tmpls)), negated: s.intn(5) == 0}
			if !p.negated && s.intn(3) == 0 {
				p.binder = diffBinders[s.intn(len(diffBinders))]
			}
			nslots := len(sc.tmpls[p.tmpl].Slots)
			nm := s.intn(nslots + 1)
			for mi := 0; mi < nm; mi++ {
				p.matches = append(p.matches, matchSpec{
					slot: s.intn(nslots), kind: s.intn(8), val: s.next(),
					v: s.intn(len(diffVars)), pred: s.intn(len(diffPreds)),
				})
			}
			r.pats = append(r.pats, p)
		}
		ntests := s.intn(3)
		for i := 0; i < ntests; i++ {
			r.tests = append(r.tests, testSpec{
				kind: s.intn(2), a: diffVars[s.intn(3)], b: diffVars[s.intn(3)], c: int64(s.intn(3)),
			})
		}
		nacts := s.intn(3)
		for i := 0; i < nacts; i++ {
			a := actSpec{kind: s.intn(4), tmpl: s.intn(len(sc.tmpls)), name: diffVars[s.intn(3)]}
			if a.kind == 2 {
				a.name = diffBinders[s.intn(len(diffBinders))]
			}
			for si := range sc.tmpls[a.tmpl].Slots {
				if s.intn(2) == 0 {
					continue
				}
				src := slotSrc{slot: si}
				if s.intn(2) == 0 {
					src.from = diffVars[s.intn(3)]
				} else {
					src.val = s.next()
				}
				a.slots = append(a.slots, src)
			}
			r.acts = append(r.acts, a)
		}
		sc.rules = append(sc.rules, r)
	}
	sc.upfront = 1 + s.intn(nr)
	// At most 8 asserts plus the action budget: joins are cubic in
	// working memory, and the reference clones maps per candidate.
	asserts := 0
	nops := 4 + s.intn(20)
	for i := 0; i < nops; i++ {
		op := opSpec{kind: [...]int{0, 0, 0, 1, 2, 2, 3, 4}[s.intn(8)]}
		if op.kind == 0 && asserts == 8 {
			op.kind = 2
		}
		switch op.kind {
		case 0:
			asserts++
			op.tmpl = s.intn(len(sc.tmpls))
			for si := range sc.tmpls[op.tmpl].Slots {
				if s.intn(3) != 0 {
					op.slots = append(op.slots, slotSrc{slot: si, val: s.next()})
				}
			}
			if s.intn(12) == 0 {
				op.bad = 1 + s.intn(2)
			}
		case 1:
			op.id = 1 + s.intn(12)
		case 2:
			op.limit = s.intn(4)
		case 4:
			if s.intn(4) != 0 { // keep resets rare
				op.kind = 2
			}
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// diffGetter is the binding lookup both engines' bindings offer.
type diffGetter interface {
	Get(name string) (Value, bool)
}

func (ts testSpec) holds(b diffGetter) bool {
	av, _ := b.Get(ts.a)
	switch ts.kind {
	case 0:
		i, _ := Norm(av).(int64)
		return i != ts.c
	default:
		bv, _ := b.Get(ts.b)
		return Eq(av, bv) == (ts.c != 0)
	}
}

// diffRender renders a value of either engine; facts by reference.
func diffRender(v Value) string {
	switch f := v.(type) {
	case *Fact:
		return f.Ref()
	case *refFact:
		return fmt.Sprintf("f-%d", f.ID)
	}
	return FormatValue(v)
}

func isFactValue(v Value) bool {
	switch v.(type) {
	case *Fact, *refFact:
		return true
	}
	return false
}

// actEnv is what a rule action may do, on either engine.
type actEnv interface {
	diffGetter
	printf(format string, args ...any)
	assert(template string, slots map[string]Value) error
	retract(id int)
	ids() []int
}

// runActions performs a rule's actions and logs what the action saw.
func runActions(rule string, acts []actSpec, names []string, tmpls []*Template, env actEnv, log *[]string, budget *int) {
	var seen []string
	for _, n := range names {
		if v, ok := env.Get(n); ok {
			seen = append(seen, n+"="+diffRender(v))
		}
	}
	*log = append(*log, fmt.Sprintf("%s %v {%s}", rule, env.ids(), strings.Join(seen, " ")))
	for _, a := range acts {
		switch a.kind {
		case 0:
			v, _ := env.Get(a.name)
			env.printf("%s: %s=%s\n", rule, a.name, diffRender(v))
		case 1:
			if *budget <= 0 {
				continue
			}
			*budget--
			t := tmpls[a.tmpl]
			slots := map[string]Value{}
			for _, src := range a.slots {
				sd := t.Slots[src.slot]
				if src.from == "" {
					slots[sd.Name] = diffValue(src.val, sd.Multi)
				} else if v, ok := env.Get(src.from); ok && !isFactValue(v) {
					slots[sd.Name] = v
				}
			}
			if err := env.assert(t.Name, slots); err != nil {
				*log = append(*log, "action assert: "+err.Error())
			}
		case 2:
			if v, ok := env.Get(a.name); ok {
				switch f := v.(type) {
				case *Fact:
					env.retract(f.ID)
				case *refFact:
					env.retract(f.ID)
				}
			}
		case 3:
			if ids := env.ids(); len(ids) > 0 {
				env.retract(ids[0])
			}
		}
	}
}

type newEnv struct {
	*Bindings
	ctx *Context
}

func (n newEnv) printf(format string, args ...any) { n.ctx.Printf(format, args...) }
func (n newEnv) assert(t string, s map[string]Value) error {
	_, err := n.ctx.Assert(t, s)
	return err
}
func (n newEnv) retract(id int) { n.ctx.Retract(id) }
func (n newEnv) ids() []int     { return n.ctx.IDs }

type refEnv struct {
	*refBindings
	ctx *refContext
}

func (r refEnv) printf(format string, args ...any) { r.ctx.Printf(format, args...) }
func (r refEnv) assert(t string, s map[string]Value) error {
	_, err := r.ctx.Assert(t, s)
	return err
}
func (r refEnv) retract(id int) { r.ctx.Retract(id) }
func (r refEnv) ids() []int     { return r.ctx.IDs }

func (m matchSpec) matcher() Matcher {
	v, p := diffVars[m.v], diffPreds[m.pred]
	switch m.kind {
	case 0:
		return Lit(diffValue(m.val, false))
	case 1, 2:
		return Var(v)
	case 3:
		return Pred(p)
	case 4:
		return BindPred(v, p)
	case 5:
		return Not(Lit(diffValue(m.val, false)))
	case 6:
		return Not(Var(v))
	}
	return Any()
}

func (m matchSpec) refMatcher() refMatcher {
	v, p := diffVars[m.v], diffPreds[m.pred]
	switch m.kind {
	case 0:
		return refLit(diffValue(m.val, false))
	case 1, 2:
		return refVar(v)
	case 3:
		return refPred(p)
	case 4:
		return refBindPred(v, p)
	case 5:
		return refNot(refLit(diffValue(m.val, false)))
	case 6:
		return refNot(refVar(v))
	}
	return refAny()
}

// diffHarness holds one scenario's pair of engines and what each has
// produced so far.
type diffHarness struct {
	t                        testing.TB
	sc                       *diffScenario
	e                        *Engine
	r                        *refEngine
	eOut, rOut, eEcho, rEcho bytes.Buffer
	eLog, rLog               []string
	eBudget, rBudget         int
	defined                  int
	names                    []string
	positional               bool // ops assert through AssertValues
}

func newDiffHarness(t testing.TB, sc *diffScenario, positional bool) *diffHarness {
	h := &diffHarness{t: t, sc: sc, e: NewEngine(), r: newRefEngine(),
		eBudget: sc.budget, rBudget: sc.budget, positional: positional}
	h.names = append(append([]string(nil), diffVars...), "f", "g")
	h.e.Out, h.e.Echo = &h.eOut, &h.eEcho
	h.r.Out, h.r.Echo = &h.rOut, &h.rEcho
	h.e.OnFire = func(fr FireRecord) { h.eLog = append(h.eLog, "onfire "+fr.String()) }
	h.r.OnFire = func(fr FireRecord) { h.rLog = append(h.rLog, "onfire "+fr.String()) }
	for _, tm := range sc.tmpls {
		h.same("deftemplate", h.e.DefTemplate(tm), h.r.DefTemplate(tm))
	}
	return h
}

func (h *diffHarness) same(what string, a, b error) {
	h.t.Helper()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		h.t.Fatalf("%s: engine error %v, reference error %v", what, a, b)
	}
}

func (h *diffHarness) defineNext() {
	if h.defined >= len(h.sc.rules) {
		return
	}
	rs := h.sc.rules[h.defined]
	h.defined++
	r := &Rule{Name: rs.name, Salience: rs.salience}
	rr := &refRule{Name: rs.name, Salience: rs.salience}
	for _, ps := range rs.pats {
		tname := h.sc.tmpls[ps.tmpl].Name
		p := Pattern{Template: tname, Binder: ps.binder, Negated: ps.negated}
		rp := refPattern{Template: tname, Binder: ps.binder, Negated: ps.negated}
		for _, ms := range ps.matches {
			slot := h.sc.tmpls[ps.tmpl].Slots[ms.slot].Name
			p.Matches = append(p.Matches, S(slot, ms.matcher()))
			rp.Matches = append(rp.Matches, refSlotMatch{Slot: slot, M: ms.refMatcher()})
		}
		r.Patterns = append(r.Patterns, p)
		rr.Patterns = append(rr.Patterns, rp)
	}
	for _, ts := range rs.tests {
		ts := ts
		r.Tests = append(r.Tests, func(b *Bindings) bool { return ts.holds(b) })
		rr.Tests = append(rr.Tests, func(b *refBindings) bool { return ts.holds(b) })
	}
	r.Action = func(ctx *Context, b *Bindings) {
		runActions(rs.name, rs.acts, h.names, h.sc.tmpls, newEnv{b, ctx}, &h.eLog, &h.eBudget)
	}
	rr.Action = func(ctx *refContext, b *refBindings) {
		runActions(rs.name, rs.acts, h.names, h.sc.tmpls, refEnv{b, ctx}, &h.rLog, &h.rBudget)
	}
	h.same("defrule "+rs.name, h.e.DefRule(r), h.r.DefRule(rr))
}

func (h *diffHarness) apply(op opSpec) string {
	switch op.kind {
	case 0:
		t := h.sc.tmpls[op.tmpl]
		slots := map[string]Value{}
		for _, src := range op.slots {
			sd := t.Slots[src.slot]
			slots[sd.Name] = diffValue(src.val, sd.Multi)
		}
		switch op.bad {
		case 1:
			slots["zz"] = int64(1)
		case 2:
			for _, sd := range t.Slots {
				if sd.Multi {
					slots[sd.Name] = "a"
				}
			}
		}
		if h.positional {
			h.assertPositional(t, slots, op.bad == 1)
			return fmt.Sprintf("assert-values %s %v", t.Name, slots)
		}
		_, errE := h.e.Assert(t.Name, slots)
		_, errR := h.r.Assert(t.Name, slots)
		h.same("assert", errE, errR)
		return fmt.Sprintf("assert %s %v", t.Name, slots)
	case 1:
		h.e.Retract(op.id)
		h.r.Retract(op.id)
		return fmt.Sprintf("retract %d", op.id)
	case 2:
		ne, nr := h.e.Run(op.limit), h.r.Run(op.limit)
		if ne != nr {
			h.t.Fatalf("run(%d): engine fired %d, reference %d", op.limit, ne, nr)
		}
		return fmt.Sprintf("run %d", op.limit)
	case 3:
		h.defineNext()
		return "defrule"
	default:
		h.e.Reset()
		h.r.Reset()
		h.eBudget, h.rBudget = h.sc.budget, h.sc.budget
		return "reset"
	}
}

// assertPositional asserts slots on the engine by position, every
// absent slot filled with its default, and on the reference by name.
// A slot the template lacks cannot be named by position: the engine
// gets one value too many instead, and both sides must reject the
// fact, each with its own message.
func (h *diffHarness) assertPositional(t *Template, slots map[string]Value, unknownSlot bool) {
	h.t.Helper()
	ref, ok := h.e.prog.Template(t.Name)
	if !ok {
		h.t.Fatalf("engine has no template %s", t.Name)
	}
	vals := make([]Value, len(t.Slots))
	for i, sd := range t.Slots {
		v, present := slots[sd.Name]
		if !present {
			v = sd.Default
			if v == nil && sd.Multi {
				v = []Value{}
			}
		}
		vals[i] = v
	}
	if unknownSlot {
		vals = append(vals, int64(1))
	}
	_, errE := h.e.AssertValues(ref, vals)
	_, errR := h.r.Assert(t.Name, slots)
	if unknownSlot {
		if errE == nil || errR == nil {
			h.t.Fatalf("assert with an unknown slot: engine error %v, reference error %v", errE, errR)
		}
		return
	}
	h.same("assert-values", errE, errR)
}

// check compares everything observable after a step.
func (h *diffHarness) check(step int, what string) {
	h.t.Helper()
	fail := func(field string, got, want any) {
		h.t.Helper()
		h.t.Fatalf("step %d (%s): %s differs\nengine:    %v\nreference: %v", step, what, field, got, want)
	}
	if got, want := h.eOut.String(), h.rOut.String(); got != want {
		fail("Out", got, want)
	}
	if got, want := h.eEcho.String(), h.rEcho.String(); got != want {
		fail("Echo", got, want)
	}
	if !slices.Equal(h.eLog, h.rLog) {
		fail("action log", h.eLog, h.rLog)
	}
	render := func(tr []FireRecord) []string {
		out := make([]string, len(tr))
		for i, fr := range tr {
			out[i] = fr.String()
		}
		return out
	}
	if got, want := render(h.e.Trace()), render(h.r.Trace()); !slices.Equal(got, want) {
		fail("fire trace", got, want)
	}
	if got, want := h.e.AgendaLen(), h.r.AgendaLen(); got != want {
		fail("AgendaLen", got, want)
	}
	var ef, rf []string
	for _, f := range h.e.Facts() {
		ef = append(ef, fmt.Sprintf("%d %s", f.ID, f))
	}
	for _, f := range h.r.Facts() {
		rf = append(rf, fmt.Sprintf("%d %s", f.ID, f))
	}
	if !slices.Equal(ef, rf) {
		fail("Facts", ef, rf)
	}
}

// runDifferential executes a decoded scenario on both engines, through
// the slot-map wrapper and through the positional core, and reports
// how many rules fired (so callers can tell an idle scenario).
func runDifferential(t testing.TB, data []byte) int {
	sc := decodeScenario(&byteSource{data: data})
	runScenario(t, sc, true)
	return runScenario(t, sc, false)
}

func runScenario(t testing.TB, sc *diffScenario, positional bool) int {
	h := newDiffHarness(t, sc, positional)
	for h.defined < sc.upfront {
		h.defineNext()
	}
	h.check(0, "define")
	for i, op := range sc.ops {
		h.check(i+1, h.apply(op))
	}
	h.apply(opSpec{kind: 2})
	h.check(len(sc.ops)+1, "final run")
	return len(h.e.Trace())
}

func TestEngineDifferential(t *testing.T) {
	two := &Template{Name: "t0", Slots: []SlotDef{{Name: "s0"}, {Name: "s1"}}}
	assert := func(s0, s1 int) opSpec {
		return opSpec{kind: 0, slots: []slotSrc{{slot: 0, val: s0}, {slot: 1, val: s1}}}
	}
	run := opSpec{kind: 2}
	cases := []struct {
		name string
		sc   *diffScenario
	}{
		{"empty", decodeScenario(&byteSource{})},
		// The first candidate for pattern 1 binds x, then fails its
		// literal; the second must see x unbound again. (t0 "a" 2)
		// then (t0 "b" 1) activates only with x=b, y=a.
		{"bind-then-fail", &diffScenario{
			tmpls: []*Template{two},
			rules: []ruleSpec{{name: "r0", pats: []patSpec{
				{matches: []matchSpec{{slot: 0, kind: 1, v: 0}, {slot: 1, kind: 0, val: 1}}},
				{matches: []matchSpec{{slot: 0, kind: 1, v: 1}}},
			}}},
			upfront: 1,
			ops:     []opSpec{assert(3, 2), assert(4, 1), run},
		}},
		// The negated pattern's probe of (t0 "a" 2) binds z, then
		// fails its literal; its probe of (t0 "b" 1) must see z
		// unbound again, so that fact blocks x=a and x=b alike.
		{"negation-bind-then-fail", &diffScenario{
			tmpls: []*Template{two},
			rules: []ruleSpec{{name: "r0", pats: []patSpec{
				{matches: []matchSpec{{slot: 0, kind: 1, v: 0}}},
				{negated: true, matches: []matchSpec{{slot: 0, kind: 1, v: 2}, {slot: 1, kind: 0, val: 1}}},
			}}},
			upfront: 1,
			ops:     []opSpec{assert(3, 2), assert(4, 1), run},
		}},
		// A negated pattern blocks, then a retract re-enables it and
		// the fire-time re-check sees a later blocker.
		{"negation", &diffScenario{
			tmpls: []*Template{two},
			rules: []ruleSpec{{name: "r0", pats: []patSpec{
				{matches: []matchSpec{{slot: 0, kind: 1, v: 0}}},
				{negated: true, matches: []matchSpec{{slot: 1, kind: 1, v: 0}}},
			}}},
			upfront: 1,
			ops: []opSpec{assert(3, 3), run, {kind: 1, id: 1}, assert(4, 0),
				assert(0, 4), run, assert(1, 0), run},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runScenario(t, c.sc, false)
			runScenario(t, c.sc, true)
		})
	}
	// Random scenarios: the decoder is dense, so uniform bytes cover
	// every matcher, negation, binder, test and action kind.
	fires := 0
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 96+rng.Intn(160))
		rng.Read(data)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fires += runDifferential(t, data)
		})
	}
	if fires < 300 {
		t.Errorf("random scenarios fired only %d rules in total; the generator lost its teeth", fires)
	}
}

func FuzzEngineDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 128)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data)
	})
}
