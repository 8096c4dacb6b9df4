package expert

import (
	"bytes"
	"strings"
	"testing"
)

func personTemplate() *Template {
	return &Template{Name: "person", Slots: []SlotDef{
		{Name: "name"},
		{Name: "age"},
		{Name: "tags", Multi: true},
	}}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.DefTemplate(personTemplate()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAssertAndFactString(t *testing.T) {
	e := newTestEngine(t)
	f, err := e.Assert("person", map[string]Value{"name": "alice", "age": 30})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 1 || f.Ref() != "f-1" {
		t.Errorf("id = %d", f.ID)
	}
	s := f.String()
	if !strings.Contains(s, "(name alice)") || !strings.Contains(s, "(age 30)") {
		t.Errorf("String = %s", s)
	}
	// Defaults: multislot defaults to empty list.
	if tags, ok := f.Get("tags").([]Value); !ok || len(tags) != 0 {
		t.Errorf("tags default = %v", f.Get("tags"))
	}
}

func TestAssertValidation(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Assert("nosuch", nil); err == nil {
		t.Error("undefined template accepted")
	}
	if _, err := e.Assert("person", map[string]Value{"bogus": 1}); err == nil {
		t.Error("undefined slot accepted")
	}
	if _, err := e.Assert("person", map[string]Value{"tags": "notalist"}); err == nil {
		t.Error("scalar in multislot accepted")
	}
}

func TestSimpleRuleFires(t *testing.T) {
	e := newTestEngine(t)
	var fired []string
	err := e.DefRule(&Rule{
		Name:     "adult",
		Patterns: []Pattern{P("person", S("name", Var("n")), S("age", Pred(func(v Value) bool { i, _ := v.(int64); return i >= 18 })))},
		Action: func(ctx *Context, b *Bindings) {
			fired = append(fired, b.Str("n"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Assert("person", map[string]Value{"name": "kid", "age": 10})
	e.Assert("person", map[string]Value{"name": "adult1", "age": 30})
	n := e.Run(0)
	if n != 1 || len(fired) != 1 || fired[0] != "adult1" {
		t.Errorf("fired = %v (n=%d)", fired, n)
	}
}

func TestRefraction(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "count",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	e.Run(0) // same fact must not fire again
	if count != 1 {
		t.Errorf("count = %d, want 1 (refraction)", count)
	}
	// A new fact fires once more.
	e.Assert("person", map[string]Value{"name": "y", "age": 2})
	e.Run(0)
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestVariableJoin(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "parent", Slots: []SlotDef{{Name: "p"}, {Name: "c"}}})
	var pairs []string
	e.DefRule(&Rule{
		Name: "grandparent",
		Patterns: []Pattern{
			P("parent", S("p", Var("a")), S("c", Var("b"))),
			P("parent", S("p", Var("b")), S("c", Var("c"))),
		},
		Action: func(ctx *Context, b *Bindings) {
			pairs = append(pairs, b.Str("a")+">"+b.Str("c"))
		},
	})
	e.Assert("parent", map[string]Value{"p": "tom", "c": "bob"})
	e.Assert("parent", map[string]Value{"p": "bob", "c": "ann"})
	e.Assert("parent", map[string]Value{"p": "sue", "c": "joe"})
	e.Run(0)
	if len(pairs) != 1 || pairs[0] != "tom>ann" {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestSalienceOrdersFiring(t *testing.T) {
	e := newTestEngine(t)
	var order []string
	mk := func(name string, sal int) *Rule {
		return &Rule{
			Name:     name,
			Salience: sal,
			Patterns: []Pattern{P("person")},
			Action:   func(*Context, *Bindings) { order = append(order, name) },
		}
	}
	e.DefRule(mk("low", -10))
	e.DefRule(mk("high", 10))
	e.DefRule(mk("mid", 0))
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	want := "high,mid,low"
	if strings.Join(order, ",") != want {
		t.Errorf("order = %v", order)
	}
}

func TestRetractRemovesActivations(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	f, _ := e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Retract(f.ID)
	e.Run(0)
	if count != 0 {
		t.Error("retracted fact still fired")
	}
	if _, ok := e.Fact(f.ID); ok {
		t.Error("fact still present")
	}
}

func TestActionAssertChains(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "a", Slots: []SlotDef{{Name: "v"}}})
	e.DefTemplate(&Template{Name: "b", Slots: []SlotDef{{Name: "v"}}})
	var got []int64
	e.DefRule(&Rule{
		Name:     "a-to-b",
		Patterns: []Pattern{P("a", S("v", Var("x")))},
		Action: func(ctx *Context, b *Bindings) {
			ctx.Assert("b", map[string]Value{"v": b.Int("x") + 1})
		},
	})
	e.DefRule(&Rule{
		Name:     "b-sink",
		Patterns: []Pattern{P("b", S("v", Var("x")))},
		Action: func(ctx *Context, b *Bindings) {
			got = append(got, b.Int("x"))
		},
	})
	e.Assert("a", map[string]Value{"v": 41})
	e.Run(0)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("got = %v", got)
	}
}

func TestActionRetractPreventsOtherRules(t *testing.T) {
	e := newTestEngine(t)
	var fired []string
	e.DefRule(&Rule{
		Name:     "eater",
		Salience: 10,
		Patterns: []Pattern{PBind("f", "person")},
		Action: func(ctx *Context, b *Bindings) {
			fired = append(fired, "eater")
			ctx.Retract(b.Fact("f").ID)
		},
	})
	e.DefRule(&Rule{
		Name:     "late",
		Salience: 0,
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { fired = append(fired, "late") },
	})
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	if strings.Join(fired, ",") != "eater" {
		t.Errorf("fired = %v (late should have lost its activation)", fired)
	}
}

func TestTestsFilterActivations(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person", S("age", Var("a")))},
		Tests:    []func(*Bindings) bool{func(b *Bindings) bool { return b.Int("a") > 20 }},
		Action:   func(*Context, *Bindings) { count++ },
	})
	e.Assert("person", map[string]Value{"name": "x", "age": 10})
	e.Assert("person", map[string]Value{"name": "y", "age": 30})
	e.Run(0)
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

func TestFireTraceFormat(t *testing.T) {
	e := newTestEngine(t)
	var out bytes.Buffer
	e.Out = &out
	e.DefRule(&Rule{Name: "check_execve", Patterns: []Pattern{P("person")}})
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	if got := strings.TrimSpace(out.String()); got != "FIRE 1 check_execve: f-1" {
		t.Errorf("trace output = %q", got)
	}
	tr := e.Trace()
	if len(tr) != 1 || tr[0].Rule != "check_execve" || tr[0].FactIDs[0] != 1 {
		t.Errorf("trace = %+v", tr)
	}
}

func TestRunLimit(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	for i := 0; i < 5; i++ {
		e.Assert("person", map[string]Value{"name": "x", "age": i})
	}
	if n := e.Run(2); n != 2 || count != 2 {
		t.Errorf("limited run fired %d/%d", n, count)
	}
	if n := e.Run(0); n != 3 {
		t.Errorf("remaining fired %d", n)
	}
}

func TestDefRuleActivatesExistingFacts(t *testing.T) {
	e := newTestEngine(t)
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	e.Run(0)
	if count != 1 {
		t.Error("rule did not see pre-existing fact")
	}
}

func TestDuplicateDefinitionsRejected(t *testing.T) {
	e := newTestEngine(t)
	if err := e.DefTemplate(personTemplate()); err == nil {
		t.Error("duplicate template accepted")
	}
	e.DefRule(&Rule{Name: "r", Patterns: []Pattern{P("person")}})
	if err := e.DefRule(&Rule{Name: "r", Patterns: []Pattern{P("person")}}); err == nil {
		t.Error("duplicate rule accepted")
	}
	if err := e.DefRule(&Rule{Name: "r2", Patterns: []Pattern{P("ghost")}}); err == nil {
		t.Error("rule on undefined template accepted")
	}
}

func TestMultifieldMatching(t *testing.T) {
	e := newTestEngine(t)
	var hit bool
	e.DefRule(&Rule{
		Name: "has-binary-tag",
		Patterns: []Pattern{P("person", S("tags", Pred(func(v Value) bool {
			l, _ := v.([]Value)
			for _, e := range l {
				if e == "BINARY" {
					return true
				}
			}
			return false
		})))},
		Action: func(*Context, *Bindings) { hit = true },
	})
	e.Assert("person", map[string]Value{"name": "a", "age": 1, "tags": []Value{"FILE"}})
	e.Run(0)
	if hit {
		t.Error("rule fired on wrong tags")
	}
	e.Assert("person", map[string]Value{"name": "b", "age": 1, "tags": []Value{"FILE", "BINARY"}})
	e.Run(0)
	if !hit {
		t.Error("rule missed BINARY tag")
	}
}

func TestReset(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	e.Reset()
	if len(e.Facts()) != 0 || e.AgendaLen() != 0 || len(e.Trace()) != 0 {
		t.Error("reset incomplete")
	}
	// Rules survive and refraction memory is cleared.
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	if count != 2 {
		t.Errorf("count after reset = %d", count)
	}
}

func TestEqAndNorm(t *testing.T) {
	if !Eq(int(5), int64(5)) {
		t.Error("int/int64 not equal")
	}
	if !Eq([]Value{"a", int64(1)}, []Value{"a", 1}) {
		t.Error("multifield eq failed")
	}
	if Eq([]Value{"a"}, "a") {
		t.Error("list equals scalar")
	}
	if Eq([]Value{"a"}, []Value{"a", "b"}) {
		t.Error("different lengths equal")
	}
	if got := Norm(uint32(7)); got != int64(7) {
		t.Errorf("Norm(uint32) = %T", got)
	}
	if got, ok := Norm([]string{"x"}).([]Value); !ok || got[0] != "x" {
		t.Error("Norm([]string) failed")
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[string]Value{
		"SYS_execve":    "SYS_execve",
		`"/bin/ls"`:     "/bin/ls",
		"33":            33,
		"(FILE BINARY)": []Value{"FILE", "BINARY"},
	}
	for want, v := range cases {
		if got := FormatValue(v); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestVarBindsAndConstrains(t *testing.T) {
	b := NewBindings()
	m := Var("x")
	if !m("hello", b) {
		t.Fatal("first bind failed")
	}
	if !m("hello", b) {
		t.Error("same value rejected")
	}
	if m("other", b) {
		t.Error("different value accepted")
	}
}

func TestNotMatcher(t *testing.T) {
	b := NewBindings()
	if Not(Lit("x"))("x", b) {
		t.Error("Not(Lit) matched the literal")
	}
	if !Not(Lit("x"))("y", b) {
		t.Error("Not(Lit) rejected a non-match")
	}
}

func TestNegativePatternBlocks(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "task", Slots: []SlotDef{{Name: "id"}}})
	e.DefTemplate(&Template{Name: "done", Slots: []SlotDef{{Name: "id"}}})
	var fired []int64
	e.DefRule(&Rule{
		Name: "pending",
		Patterns: []Pattern{
			P("task", S("id", Var("i"))),
			PNot("done", S("id", Var("i"))),
		},
		Action: func(ctx *Context, b *Bindings) {
			fired = append(fired, b.Int("i"))
		},
	})
	e.Assert("task", map[string]Value{"id": 1})
	e.Assert("task", map[string]Value{"id": 2})
	e.Assert("done", map[string]Value{"id": 1})
	e.Run(0)
	if len(fired) != 1 || fired[0] != 2 {
		t.Errorf("fired = %v, want [2]", fired)
	}
}

func TestNegativePatternDefeatedBeforeFire(t *testing.T) {
	// A fact asserted after activation but before firing defeats the
	// not-element.
	e := NewEngine()
	e.DefTemplate(&Template{Name: "task", Slots: []SlotDef{{Name: "id"}}})
	e.DefTemplate(&Template{Name: "done", Slots: []SlotDef{{Name: "id"}}})
	count := 0
	e.DefRule(&Rule{
		Name: "pending",
		Patterns: []Pattern{
			P("task", S("id", Var("i"))),
			PNot("done", S("id", Var("i"))),
		},
		Action: func(*Context, *Bindings) { count++ },
	})
	e.Assert("task", map[string]Value{"id": 1})
	// The activation exists now; defeat it before running.
	e.Assert("done", map[string]Value{"id": 1})
	e.Run(0)
	if count != 0 {
		t.Errorf("defeated activation fired %d times", count)
	}
}

func TestNegativePatternReenabledByRetract(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "task", Slots: []SlotDef{{Name: "id"}}})
	e.DefTemplate(&Template{Name: "done", Slots: []SlotDef{{Name: "id"}}})
	count := 0
	e.DefRule(&Rule{
		Name: "pending",
		Patterns: []Pattern{
			P("task", S("id", Var("i"))),
			PNot("done", S("id", Var("i"))),
		},
		Action: func(*Context, *Bindings) { count++ },
	})
	e.Assert("task", map[string]Value{"id": 1})
	blocker, _ := e.Assert("done", map[string]Value{"id": 1})
	e.Run(0)
	if count != 0 {
		t.Fatal("fired while blocked")
	}
	e.Retract(blocker.ID)
	e.Run(0)
	if count != 1 {
		t.Errorf("retract did not re-enable the not-element (count=%d)", count)
	}
}

func TestNegativePatternOnlyRule(t *testing.T) {
	// A rule whose only positive pattern is preceded by a not on an
	// empty template fires normally.
	e := NewEngine()
	e.DefTemplate(&Template{Name: "x", Slots: []SlotDef{{Name: "v"}}})
	e.DefTemplate(&Template{Name: "inhibit", Slots: []SlotDef{{Name: "v"}}})
	count := 0
	e.DefRule(&Rule{
		Name: "r",
		Patterns: []Pattern{
			PNot("inhibit"),
			P("x"),
		},
		Action: func(*Context, *Bindings) { count++ },
	})
	e.Assert("x", map[string]Value{"v": 1})
	e.Run(0)
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

func TestDefRuleRejectsUnknownSlot(t *testing.T) {
	e := NewEngine()
	if err := e.DefTemplate(&Template{Name: "ev", Slots: []SlotDef{{Name: "name"}}}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Pattern{
		P("ev", S("nmae", Var("n"))),
		PNot("ev", S("nmae", Lit("x"))),
	} {
		err := e.DefRule(&Rule{Name: "typo", Patterns: []Pattern{p}})
		if err == nil || !strings.Contains(err.Error(), `no slot "nmae"`) {
			t.Errorf("pattern %+v: err = %v, want a missing-slot error", p, err)
		}
	}
	// The rejected rule is not registered, so the corrected one is
	// accepted under the same name and fires.
	fired := 0
	if err := e.DefRule(&Rule{
		Name:     "typo",
		Patterns: []Pattern{P("ev", S("name", Var("n")))},
		Action:   func(*Context, *Bindings) { fired++ },
	}); err != nil {
		t.Fatal(err)
	}
	e.Assert("ev", map[string]Value{"name": "a"})
	if e.Run(0); fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	// The CLIPS front end passes the error on.
	err := NewClips(e).Eval(`(defrule typo2 (ev (nmae ?n)) => (printout t ?n crlf))`)
	if err == nil || !strings.Contains(err.Error(), `no slot "nmae"`) {
		t.Errorf("clips defrule err = %v, want a missing-slot error", err)
	}
}

func TestDefTemplateRejectsDuplicateSlot(t *testing.T) {
	e := NewEngine()
	err := e.DefTemplate(&Template{Name: "t", Slots: []SlotDef{{Name: "a"}, {Name: "a"}}})
	if err == nil {
		t.Error("duplicate slot accepted")
	}
}

// eventRule is a Secpert-shaped rule: one pattern that binds several
// slots of each event fact and fires on most of them.
func eventRule(fired *int) *Rule {
	return &Rule{
		Name: "seen",
		Patterns: []Pattern{P("person",
			S("name", Var("n")), S("age", Var("a")), S("tags", Var("t")))},
		Tests:  []func(*Bindings) bool{func(b *Bindings) bool { return b.Str("n") != "skip" }},
		Action: func(*Context, *Bindings) { *fired++ },
	}
}

func TestRefractionMemoryBoundedUnderFlood(t *testing.T) {
	e := newTestEngine(t)
	fired := 0
	if err := e.DefRule(eventRule(&fired)); err != nil {
		t.Fatal(err)
	}
	slots := map[string]Value{"name": "x", "age": int64(1)}
	for i := 0; i < 10_000; i++ {
		f, err := e.Assert("person", slots)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(0)
		e.Retract(f.ID)
		if len(e.fired) > 1 {
			t.Fatalf("event %d: refraction memory holds %d entries", i, len(e.fired))
		}
	}
	if fired != 10_000 || len(e.Trace()) != 10_000 {
		t.Fatalf("fired %d, trace %d; want 10000 each", fired, len(e.Trace()))
	}
	// A fact that stays keeps its entry: it must not fire twice.
	e.Assert("person", slots)
	e.Run(0)
	e.Run(0)
	if fired != 10_001 || len(e.fired) != 1 {
		t.Errorf("resident fact: fired %d, refraction entries %d", fired, len(e.fired))
	}
}

// TestEventAllocsFlat holds the per-event cost of an assert/run/
// retract cycle flat as the engine's history grows 10×, and a
// candidate that fails its pattern to the fact itself.
func TestEventAllocsFlat(t *testing.T) {
	e := newTestEngine(t)
	fired := 0
	if err := e.DefRule(eventRule(&fired)); err != nil {
		t.Fatal(err)
	}
	slots := map[string]Value{"name": "x", "age": int64(1), "tags": []Value{"a"}}
	event := func() {
		f, _ := e.Assert("person", slots)
		e.Run(0)
		e.Retract(f.ID)
	}
	perEvent := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				event()
			}
		}) / float64(n)
	}
	a100, a1000 := perEvent(100), perEvent(1000)
	t.Logf("allocs/event: %.2f after 100 events, %.2f after 1000", a100, a1000)
	if d := a1000 - a100; d > 1 || d < -1 {
		t.Errorf("allocs/event %.2f at 100 events vs %.2f at 1000: not flat", a100, a1000)
	}

	// The test rejects "skip": join tries the candidate, the test
	// fails, and nothing beyond the fact and its values allocates.
	slots["name"] = "skip"
	if n := testing.AllocsPerRun(200, event); n > 2 {
		t.Errorf("a rejected event costs %.0f allocs, want ≤2 (the fact and its slot values)", n)
	}
}

func TestAssertValuesMatchesAssert(t *testing.T) {
	e := newTestEngine(t)
	ref, ok := e.prog.Template("person")
	if !ok {
		t.Fatal("no template person")
	}
	if _, ok := e.prog.Template("nosuch"); ok {
		t.Error("Template found an undefined template")
	}
	byMap, err := e.Assert("person", map[string]Value{"name": "alice", "age": 30, "tags": []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	byPos, err := e.AssertValues(ref, []Value{"alice", 30, []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if byMap.String() != byPos.String() || byPos.Get("age") != int64(30) {
		t.Errorf("positional fact %s, slot-map fact %s", byPos, byMap)
	}
}

func TestAssertValuesValidation(t *testing.T) {
	e := newTestEngine(t)
	ref, _ := e.prog.Template("person")
	if _, err := e.AssertValues(ref, []Value{"bob", int64(1)}); err == nil {
		t.Error("short value list accepted")
	}
	if _, err := e.AssertValues(ref, []Value{"bob", int64(1), "notalist"}); err == nil {
		t.Error("scalar in multislot accepted")
	}
	other := newTestEngine(t)
	foreign, _ := other.prog.Template("person")
	if _, err := e.AssertValues(foreign, []Value{"bob", int64(1), []Value{}}); err == nil {
		t.Error("template of another program accepted")
	}
	if _, err := e.AssertValues(TemplateRef{}, nil); err == nil {
		t.Error("zero TemplateRef accepted")
	}
	if len(e.Facts()) != 0 {
		t.Errorf("rejected asserts left facts: %v", e.Facts())
	}
}

// TestProgramSharedByEngines: engines on one Program keep separate
// working memory, and a rule one of them adds stays its own.
func TestProgramSharedByEngines(t *testing.T) {
	p := NewProgram()
	if err := p.DefTemplate(personTemplate()); err != nil {
		t.Fatal(err)
	}
	if err := p.DefRule(&Rule{
		Name:     "adult",
		Patterns: []Pattern{P("person", S("name", Var("n")), S("age", Var("a")))},
		Tests: []func(*Bindings) bool{func(b *Bindings) bool {
			return b.Int("a") >= b.Env().(*ageGate).min
		}},
		Action: func(ctx *Context, b *Bindings) { b.Env().(*ageGate).seen++ },
	}); err != nil {
		t.Fatal(err)
	}
	a, b := NewEngineFor(p), NewEngineFor(p)
	envA, envB := &ageGate{min: 18}, &ageGate{min: 65}
	a.Env, b.Env = envA, envB
	ref, _ := p.Template("person")
	for _, e := range []*Engine{a, b} {
		e.AssertValues(ref, []Value{"carol", int64(40), []Value{}})
		e.Run(0)
	}
	if envA.seen != 1 || envB.seen != 0 || len(a.Trace()) != 1 || len(b.Trace()) != 0 {
		t.Fatalf("seen %d/%d, traces %d/%d; each engine must use its own Env", envA.seen, envB.seen, len(a.Trace()), len(b.Trace()))
	}
	if err := a.DefRule(&Rule{Name: "extra", Patterns: []Pattern{P("person")}}); err != nil {
		t.Fatal(err)
	}
	if len(p.rules) != 1 || len(b.prog.rules) != 1 || len(a.prog.rules) != 2 {
		t.Errorf("rules: program %d, b %d, a %d; DefRule must copy the shared program", len(p.rules), len(b.prog.rules), len(a.prog.rules))
	}
	if a.AgendaLen() != 1 {
		t.Errorf("the added rule did not activate on a's existing fact (agenda %d)", a.AgendaLen())
	}
	// The program's TemplateRef still serves the engine that copied it.
	if _, err := a.AssertValues(ref, []Value{"dan", int64(70), []Value{}}); err != nil {
		t.Errorf("TemplateRef of the shared program rejected after copy: %v", err)
	}
}

// ageGate is the per-engine Env of TestProgramSharedByEngines.
type ageGate struct{ min, seen int64 }
