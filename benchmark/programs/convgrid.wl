Function[{Typed[n, "MachineInteger"]},
 Module[{acc = 0., i = 1, j = 1, k = 1, w = 0., f = Function[{a, b}, a*0.5 + b*0.25]},
  While[i <= n,
   j = 1;
   While[j <= n,
    k = 1; w = 0.;
    While[k <= 3,
     w = f[w, 1. / (0. + i + j + k)]; k = k + 1];
    acc = acc + w; j = j + 1];
   i = i + 1];
  Floor[acc*1000000.]]]
