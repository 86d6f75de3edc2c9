package core

import "wolfc/internal/expr"

// CacheKeysForTest hands the external tests both compile-cache keys of one
// (source, configuration) pair as opaque strings.
func CacheKeysForTest(c *Compiler, selfName string, fn expr.Expr) (fast, stable string, err error) {
	fk, err := c.contentKey(cacheKeyVersion, selfName, fn)
	if err != nil {
		return "", "", err
	}
	stable, _, err = c.stableKey(cacheKeyVersion, selfName, fn, nil)
	return string(fk[:]), stable, err
}

// reset empties the memo, so a test can count the expansions of a source an
// earlier test has keyed.
func (m *fastMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.young, m.old = nil, nil
}
