package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
)

// sessionPlan is one tenant's whole life, drawn by the seed: which kernels
// it compiles and the calls it makes, in order.
type sessionPlan struct {
	defines [][]byte
	calls   []query
}

const (
	tenantKernels       = 4  // of the eight, per session
	tenantDownValueCall = 60 // calls of each of gfib and dot2: past StencilThreshold 10 and Threshold 50
	tenantKernelCalls   = 3  // per bound kernel
	tenantPlans         = 64 // distinct plans per client, cycled
)

func newSessionPlan(rng *rand.Rand, kernels []int) (sessionPlan, error) {
	var p sessionPlan
	for _, d := range sessionDefines(kernels) {
		p.defines = append(p.defines, evalBody(d))
	}
	pools, err := queryPools(kernels)
	if err != nil {
		return p, err
	}
	perKernel := len(pools[classCCF]) / len(kernels)
	for k := range kernels {
		for j := 0; j < tenantKernelCalls; j++ {
			p.calls = append(p.calls, pools[classCCF][k*perKernel+rng.Intn(perKernel)])
		}
	}
	want, err := expectedQueries()
	if err != nil {
		return p, err
	}
	gfib, dot2 := downValueQueries(want)
	for j := 0; j < tenantDownValueCall; j++ {
		p.calls = append(p.calls, gfib[rng.Intn(len(gfib))], dot2[rng.Intn(len(dot2))])
	}
	return p, nil
}

// tenantColdstart measures how long a new tenant takes from nothing to
// done: create a session, compile four kernels (their artifacts are in the
// store, left by earlier tenants), define gfib and dot2 and call them until
// both have moved interpreter -> stencil -> O2, destroy the session.
// GOMAXPROCS tenants at a time, each waiting for every reply.
type tenantColdstart struct {
	*testServer
	cl    []*httpClient
	plans [][]sessionPlan
}

func newTenantColdstart(seed int64) (workload, error) {
	n := goruntime.GOMAXPROCS(0)
	w := &tenantColdstart{testServer: newTestServer(n)}
	for c := 0; c < n; c++ {
		w.cl = append(w.cl, newHTTPClient(w.ts.URL))
		rng := rand.New(rand.NewSource(seed*131 + int64(c)))
		var plans []sessionPlan
		for i := 0; i < tenantPlans; i++ {
			p, err := newSessionPlan(rng, rng.Perm(serveKernels)[:tenantKernels])
			if err != nil {
				w.close()
				return nil, err
			}
			plans = append(plans, p)
		}
		w.plans = append(w.plans, plans)
	}
	// The first tenants meet an empty artifact store and pay full compiles
	// for all eight kernels; that is set-up, not the steady state measured.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first, err := newSessionPlan(rand.New(rand.NewSource(seed)), allKernels())
			if err == nil {
				_, err = w.session(c, first, nil, 0)
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// session runs one plan start to finish and returns its wall time.
func (w *tenantColdstart) session(c int, p sessionPlan, tr *tracer, op int64) (int64, error) {
	cl := w.cl[c]
	var failure error
	ns := tr.in("tenant.session", -1, op, func(root int) {
		var id string
		tr.in("serve.session_create", root, op, func(int) { id, failure = cl.createSession() })
		if failure != nil {
			return
		}
		for _, d := range p.defines {
			tr.in("kernel.define", root, op, func(int) {
				if _, err := cl.eval(id, d); err != nil && failure == nil {
					failure = err
				}
			})
		}
		for _, q := range p.calls {
			tr.in("tenant.call", root, op, func(int) {
				got, err := cl.eval(id, q.body)
				if err == nil && got != q.want {
					err = fmt.Errorf("%s = %s, expected %s", q.input, got, q.want)
				}
				if err != nil && failure == nil {
					failure = err
				}
			})
		}
		tr.in("serve.session_destroy", root, op, func(int) {
			if err := cl.destroySession(id); err != nil && failure == nil {
				failure = err
			}
		})
	})
	return ns, failure
}

func (w *tenantColdstart) rows() []string { return []string{"session"} }
func (w *tenantColdstart) clients() int   { return len(w.cl) }

func (w *tenantColdstart) close() {
	for _, cl := range w.cl {
		cl.close()
	}
	w.testServer.close()
}

func (w *tenantColdstart) op(c, i int, tr *tracer) (int, int64, bool) {
	ns, err := w.session(c, w.plans[c][i%tenantPlans], tr, int64(c)<<32|int64(i))
	return 0, ns, err == nil
}
