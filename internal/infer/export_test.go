package infer

import (
	"math/rand"

	"wolfc/internal/fnreg"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// InferShuffled is InferWith with the work list permuted before solving,
// so alternatives are examined, committed and woken in another order. The
// alternative list itself keeps program order: that one is the stall rule's
// input, part of the language's overload ordering.
func InferShuffled(mod *wir.Module, env *types.Env, reg *fnreg.Registry, seed int64) error {
	in := newInferer(mod, env, reg)
	if err := in.constrain(mod); err != nil {
		return err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(in.queue), func(i, j int) {
		in.queue[i], in.queue[j] = in.queue[j], in.queue[i]
	})
	if err := in.solve(); err != nil {
		return err
	}
	return in.writeBack(mod)
}
