package taint

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// refStore is the union oracle: the Store's interning and union
// semantics with the unions map as the only cache. Fed the same
// operations as a Store, it interns the same sets in the same order,
// so its tags must equal the Store's one for one.
type refStore struct {
	budget int
	sets   [][]Source
	index  map[string]Tag
	memo   map[[2]Tag]Tag
	unionN uint64
	hitN   uint64
}

func newRefStore(budget int) *refStore {
	return &refStore{
		budget: budget,
		sets:   [][]Source{nil},
		index:  map[string]Tag{"": Empty},
		memo:   map[[2]Tag]Tag{},
	}
}

func (r *refStore) intern(set []Source) Tag {
	if r.budget > 0 && len(set) > r.budget {
		var wide []Source
		for _, s := range set {
			if len(wide) == 0 || wide[len(wide)-1].Type != s.Type {
				wide = append(wide, Source{Type: s.Type, Name: WideName})
			}
		}
		set = wide
	}
	k := key(set)
	if t, ok := r.index[k]; ok {
		return t
	}
	t := Tag(len(r.sets))
	r.sets = append(r.sets, set)
	r.index[k] = t
	return t
}

func (r *refStore) of(s Source) Tag { return r.intern([]Source{s}) }

func (r *refStore) union(a, b Tag) Tag {
	if a == b || b == Empty {
		return a
	}
	if a == Empty {
		return b
	}
	if a > b {
		a, b = b, a
	}
	r.unionN++
	if t, ok := r.memo[[2]Tag{a, b}]; ok {
		r.hitN++
		return t
	}
	set := append(slices.Clone(r.sets[a]), r.sets[b]...)
	sort.Slice(set, func(i, j int) bool { return set[i].Less(set[j]) })
	t := r.intern(slices.Compact(set))
	r.memo[[2]Tag{a, b}] = t
	return t
}

// union4 mirrors Store.Union4's association: width clamping is not
// associative, so the oracle must group the four operands the same way.
func (r *refStore) union4(a, b, c, d Tag) Tag {
	if a == b {
		if c == d {
			return r.union(a, c)
		}
		return r.union(a, r.union(c, d))
	}
	return r.union(r.union(a, b), r.union(c, d))
}

// TestUnionCacheOracle drives random Union/Union4 sequences through a
// Store and the map-only oracle, crossing every union-cache growth
// step, and requires the same tag, source set and statistics after
// every operation.
func TestUnionCacheOracle(t *testing.T) {
	for _, budget := range []int{0, 3} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + budget)))
			st, ref := NewStore(), newRefStore(budget)
			st.SetWidthBudget(budget)
			var pool []Tag
			for i := 0; i < 120; i++ {
				src := Source{Type: SourceType(1 + i%5), Name: fmt.Sprintf("r%d", i)}
				got, want := st.Of(src), ref.of(src)
				if got != want {
					t.Fatalf("Of(%v) = %d, oracle %d", src, got, want)
				}
				pool = append(pool, got)
			}
			singles := len(pool)
			pick := func() Tag {
				switch rng.Intn(8) {
				case 0:
					return Empty
				case 1, 2:
					return pool[rng.Intn(len(pool))]
				}
				return pool[rng.Intn(singles)]
			}
			sizes := map[int]bool{}
			for op := 0; op < 12000; op++ {
				var got, want Tag
				var what string
				if rng.Intn(4) == 0 {
					a, b, c, d := pick(), pick(), pick(), pick()
					if rng.Intn(2) == 0 {
						b = a // the uniform-half shapes Union4 collapses
					}
					got, want = st.Union4(a, b, c, d), ref.union4(a, b, c, d)
					what = fmt.Sprintf("Union4(%d, %d, %d, %d)", a, b, c, d)
				} else {
					a, b := pick(), pick()
					got, want = st.Union(a, b), ref.union(a, b)
					what = fmt.Sprintf("Union(%d, %d)", a, b)
				}
				if got != want || !slices.Equal(st.Sources(got), ref.sets[want]) {
					t.Fatalf("op %d: %s = %d %v, oracle %d %v", op, what,
						got, st.Sources(got), want, ref.sets[want])
				}
				if len(pool) < 600 && rng.Intn(16) == 0 {
					pool = append(pool, got)
				}
				sizes[len(st.ucache)] = true
			}
			_, unions, hits := st.Stats()
			if unions != ref.unionN || hits != ref.hitN {
				t.Errorf("Stats unions/hits = %d/%d, oracle %d/%d", unions, hits, ref.unionN, ref.hitN)
			}
			for n := unionCacheMin; n <= unionCacheSize; n *= 2 {
				if !sizes[n] {
					t.Errorf("union cache never had %d slots (saw %v); the sequence misses a growth step", n, sizes)
				}
			}
			if len(st.ucache) != unionCacheSize {
				t.Errorf("union cache ended at %d slots, want the %d cap", len(st.ucache), unionCacheSize)
			}
			// Every cached entry agrees with the map behind it.
			for i, e := range st.ucache {
				if e.a == 0 {
					continue
				}
				if want, ok := ref.memo[[2]Tag{e.a, e.b}]; !ok || e.out != want {
					t.Errorf("cache slot %d holds %d∪%d = %d, oracle %d (cached %v)", i, e.a, e.b, e.out, want, ok)
				}
			}
		})
	}
}

var storeSink *Store

// TestNoUnionsNoUnionCache: a run that never unions two tainted sets
// must not pay for the union cache.
func TestNoUnionsNoUnionCache(t *testing.T) {
	job := func() *Store {
		st := NewStore()
		f := st.Of(Source{Type: File, Name: "/etc/passwd"})
		st.Union(f, Empty)
		st.Union(Empty, f)
		st.Union(f, f)
		return st
	}
	if n := len(job().ucache); n > 1 {
		t.Errorf("store with no unions has a %d-slot union cache", n)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		storeSink = job()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4096 {
		t.Errorf("a store with no unions allocates %d bytes, want ≤ 4096", per)
	}
}
