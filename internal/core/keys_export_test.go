package core

import (
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
)

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

// BoundKernel returns the kernel the compiled wrapper's fallback and engine
// escapes are bound to.
func (ccf *CompiledCodeFunction) BoundKernel() *kernel.Kernel {
	if ccf == nil || ccf.compiler == nil {
		return nil
	}
	return ccf.compiler.Kernel
}
