package testcorpus

// Nine more sources of the golden corpus: three dispatch-bound scalar kernels
// (a multiply-accumulate loop, a Mandelbrot escape iteration, a Part-heavy
// sweep) and six kernels from medium nested loops down to one-liners. They
// were the corpora of two retired wolfbench suites; the names are the
// golden file's section names.
var kernelSources = []struct{ name, src string }{
	{"fusion-scalarloop", `Function[{Typed[n, "MachineInteger"]},
	Module[{s = 0, i = 1},
		While[i <= n, s = s + i*i; i = i + 1];
		s]]`},
	{"fusion-mandelfuse", `Function[{Typed[n, "MachineInteger"]},
	Module[{total = 0, px = 1, py = 1, cr = 0., ci = 0., zr = 0., zi = 0., t = 0., k = 0},
		While[px <= n,
			py = 1;
			While[py <= n,
				cr = -2. + 3.*px/n;
				ci = -1.25 + 2.5*py/n;
				zr = 0.; zi = 0.; k = 0;
				While[k < 50 && zr*zr + zi*zi < 4.,
					t = zr*zr - zi*zi + cr;
					zi = 2.*zr*zi + ci;
					zr = t;
					k = k + 1];
				total = total + k;
				py = py + 1];
			px = px + 1];
		total]]`},
	{"fusion-partloop", `Function[{Typed[n, "MachineInteger"]},
	Module[{v = ConstantArray[0, n], s = 0, i = 1, p = 1},
		While[i <= n, v[[i]] = i; i = i + 1];
		While[p <= 20,
			i = 1;
			While[i <= n, v[[i]] = Mod[v[[i]]*31 + i, 65521]; i = i + 1];
			p = p + 1];
		i = 1;
		While[i <= n, s = s + v[[i]]; i = i + 1];
		s]]`},
	{"coldstart-mandelcount", `Function[{Typed[maxIter, "MachineInteger"]},
		Module[{total = 0, xi = 0, yi = 0, step = Function[{zr, zi, cr}, zr*zr - zi*zi + cr], cr = 0., ci = 0., zr = 0., zi = 0., t = 0., iters = 0},
			While[xi <= 20,
				cr = -1. + 0.1*xi; yi = 0;
				While[yi <= 15,
					ci = -1. + 0.1*yi; zr = 0.; zi = 0.; iters = 0;
					While[iters < maxIter && zr*zr + zi*zi < 4.,
						t = step[zr, zi, cr]; zi = 2.*zr*zi + ci; zr = t; iters = iters + 1];
					total = total + iters; yi = yi + 1];
				xi = xi + 1];
			total]]`},
	{"coldstart-convgrid", `Function[{Typed[n, "MachineInteger"]},
		Module[{acc = 0., i = 1, j = 1, k = 1, w = 0., f = Function[{a, b}, a*0.5 + b*0.25]},
			While[i <= n,
				j = 1;
				While[j <= n,
					k = 1; w = 0.;
					While[k <= 3,
						w = f[w, 1. / (0. + i + j + k)]; k = k + 1];
					acc = acc + w; j = j + 1];
				i = i + 1];
			Floor[acc*1000000.]]]`},
	{"coldstart-horner", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0., x = 0., i = 0, p = 0.},
			While[i < n,
				x = 0.001*i;
				p = ((((x*0.3 + 1.1)*x - 0.7)*x + 0.25)*x - 1.9)*x + 0.5;
				s = s + p*p - 0.1*p; i = i + 1];
			Floor[s*1000.]]]`},
	{"coldstart-gcdsum", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1, a = 0, b = 0, t = 0},
			While[i <= n,
				a = i; b = n - i + 3;
				While[b != 0, t = Mod[a, b]; a = b; b = t];
				s = s + a; i = i + 1];
			s]]`},
	{"coldstart-square", `Function[{Typed[x, "MachineInteger"]}, x*x + 1]`},
	{"coldstart-rhalf", `Function[{Typed[x, "MachineInteger"]}, Floor[(0. + x)/2.0 + 1.5]]`},
}
