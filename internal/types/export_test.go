package types

import "sort"

// FuncNames lists every function name declared in e and its parents, for
// external tests that walk the whole standard library.
func (e *Env) FuncNames() []string {
	seen := map[string]bool{}
	var names []string
	for env := e; env != nil; env = env.parent {
		for n := range env.funcs {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}
