package lint

import "go/types"

// Facts is the cross-pass, module-wide fact store of one Runner.Run.
// Facts key directly on types.Object: the loader type-checks
// module-internal dependencies from source through one shared
// importer, so the object a pass sees for mc.SortByMaxUtilInto inside
// internal/partition is identical to the one the mc package's own
// pass saw — the property that makes "is the callee annotated?"
// answerable without string matching.
//
// Two keyspaces are provided: per-object facts (annotations, hazard
// summaries, atomic-field marks) and global facts (the partition
// Backend interface, the memoized determinism closure). Keys are plain
// strings namespaced by convention as "<pass>.<fact>".
type Facts struct {
	objs   map[types.Object]map[string]any
	global map[string]any
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{
		objs:   make(map[types.Object]map[string]any),
		global: make(map[string]any),
	}
}

// SetObj records fact key about obj.
func (f *Facts) SetObj(obj types.Object, key string, v any) {
	m, ok := f.objs[obj]
	if !ok {
		m = make(map[string]any)
		f.objs[obj] = m
	}
	m[key] = v
}

// Obj returns the fact recorded about obj under key, or nil, false.
func (f *Facts) Obj(obj types.Object, key string) (any, bool) {
	v, ok := f.objs[obj][key]
	return v, ok
}

// HasObj reports whether a fact is recorded about obj under key.
func (f *Facts) HasObj(obj types.Object, key string) bool {
	_, ok := f.objs[obj][key]
	return ok
}

// ObjsWith returns every object carrying a fact under key. Order is
// unspecified; callers that report must sort by position themselves
// (the Runner sorts all findings at the end regardless).
func (f *Facts) ObjsWith(key string) []types.Object {
	var out []types.Object
	for obj, m := range f.objs {
		if _, ok := m[key]; ok {
			out = append(out, obj)
		}
	}
	return out
}

// SetGlobal records a module-wide fact.
func (f *Facts) SetGlobal(key string, v any) { f.global[key] = v }

// globalFact returns the module-wide fact under key asserted to T;
// false when absent or of another type.
func globalFact[T any](f *Facts, key string) (T, bool) {
	v, ok := f.global[key]
	if !ok {
		var zero T
		return zero, false
	}
	t, ok := v.(T)
	return t, ok
}
