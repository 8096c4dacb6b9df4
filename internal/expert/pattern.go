package expert

// Bindings carries variable bindings accumulated while matching a
// rule's patterns: an append-only list of (name, value) pairs in which
// a later pair shadows an earlier one of the same name.
type Bindings struct {
	vars []binding
	e    *Engine // the engine matching, for Env; nil for NewBindings
}

type binding struct {
	name string
	v    Value
}

// NewBindings returns an empty binding set.
func NewBindings() *Bindings { return &Bindings{} }

// Get returns the value bound to name, if any.
func (b *Bindings) Get(name string) (Value, bool) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		if b.vars[i].name == name {
			return b.vars[i].v, true
		}
	}
	return nil, false
}

// Env returns the Env of the engine whose match produced b (nil for
// bindings made by NewBindings).
func (b *Bindings) Env() any {
	if b.e == nil {
		return nil
	}
	return b.e.Env
}

// MustGet returns the bound value or nil.
func (b *Bindings) MustGet(name string) Value {
	v, _ := b.Get(name)
	return v
}

// Str returns a bound string value (empty if unbound or non-string).
func (b *Bindings) Str(name string) string {
	s, _ := b.MustGet(name).(string)
	return s
}

// Int returns a bound int64 value (0 if unbound or non-integer).
func (b *Bindings) Int(name string) int64 {
	v, _ := Norm(b.MustGet(name)).(int64)
	return v
}

// List returns a bound multifield value.
func (b *Bindings) List(name string) []Value {
	l, _ := Norm(b.MustGet(name)).([]Value)
	return l
}

// Fact returns the fact bound by a pattern binder (?f <- pattern).
func (b *Bindings) Fact(name string) *Fact {
	f, _ := b.MustGet(name).(*Fact)
	return f
}

func (b *Bindings) set(name string, v Value) {
	b.vars = append(b.vars, binding{name, v})
}

// truncate drops every binding made since the stack held n.
func (b *Bindings) truncate(n int) {
	clear(b.vars[n:])
	b.vars = b.vars[:n]
}

// Matcher decides whether a slot value is acceptable, possibly
// extending the bindings.
type Matcher func(v Value, b *Bindings) bool

// Lit matches a literal value.
func Lit(want Value) Matcher {
	return func(v Value, _ *Bindings) bool { return Eq(v, want) }
}

// Var binds the slot value to a variable on first use and requires
// equality on subsequent uses (CLIPS ?x semantics).
func Var(name string) Matcher {
	return func(v Value, b *Bindings) bool {
		if prev, ok := b.Get(name); ok {
			return Eq(prev, v)
		}
		b.set(name, Norm(v))
		return true
	}
}

// Any matches anything without binding.
func Any() Matcher {
	return func(Value, *Bindings) bool { return true }
}

// Pred matches when fn accepts the value.
func Pred(fn func(v Value) bool) Matcher {
	return func(v Value, _ *Bindings) bool { return fn(Norm(v)) }
}

// BindPred binds the value to name when fn accepts it.
func BindPred(name string, fn func(v Value) bool) Matcher {
	return func(v Value, b *Bindings) bool {
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

// Not inverts a matcher (the inner matcher must not bind).
func Not(m Matcher) Matcher {
	return func(v Value, b *Bindings) bool { return !m(v, b) }
}

// SlotMatch pairs a slot name with its matcher.
type SlotMatch struct {
	Slot string
	M    Matcher
}

// S builds a SlotMatch.
func S(slot string, m Matcher) SlotMatch { return SlotMatch{Slot: slot, M: m} }

// Pattern matches one fact of a template. A Negated pattern is a
// CLIPS negative conditional element: it is satisfied when *no* fact
// matches; it binds nothing and contributes no fact to the
// activation.
type Pattern struct {
	Template string
	Binder   string // when set, the matched *Fact binds to this name
	Matches  []SlotMatch
	Negated  bool
}

// P builds a pattern.
func P(template string, matches ...SlotMatch) Pattern {
	return Pattern{Template: template, Matches: matches}
}

// PBind builds a pattern that binds the matched fact (?f <- pattern).
func PBind(binder, template string, matches ...SlotMatch) Pattern {
	return Pattern{Template: template, Binder: binder, Matches: matches}
}

// PNot builds a negative conditional element: (not (template ...)).
// Variables used inside must already be bound by earlier patterns.
func PNot(template string, matches ...SlotMatch) Pattern {
	return Pattern{Template: template, Matches: matches, Negated: true}
}

// compiledPattern is a Pattern resolved against its template at
// DefRule: each slot match carries the slot's position in Fact.vals.
type compiledPattern struct {
	t       *tmpl
	binder  string
	negated bool
	matches []slotMatch
}

type slotMatch struct {
	idx int
	m   Matcher
}

// match attempts the pattern against a fact of its template, extending
// b. On failure b may hold partial bindings; the caller truncates.
func (p *compiledPattern) match(f *Fact, b *Bindings) bool {
	for _, sm := range p.matches {
		if !sm.m(f.vals[sm.idx], b) {
			return false
		}
	}
	if p.binder != "" {
		b.set(p.binder, f)
	}
	return true
}
