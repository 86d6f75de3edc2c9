package fnreg

import "sync"

// This file is the ONLY package-level mutable registry state in fnreg: the
// default instance Default returns, for callers with no engine of their own.
// Everything else in the package is instance-scoped (*Registry);
// TestNoPackageLevelRegistryState (scope_test.go) holds that invariant. New
// code should create or receive a *Registry (normally via internal/engine)
// instead of touching the default.

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide default registry instance, created on
// first use with an empty engine label (so its gauges render as the
// unlabeled legacy series).
//
// The deprecated package-level wrappers (Reserve, Install, Lookup, ...)
// are gone (ISSUE 10): call the methods on Default() — or better, on an
// instance received from internal/engine.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry("") })
	return defaultReg
}
