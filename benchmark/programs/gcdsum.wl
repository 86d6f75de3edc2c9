Function[{Typed[n, "MachineInteger"]},
 Module[{s = 0, i = 1, a = 0, b = 0, t = 0},
  While[i <= n,
   a = i; b = n - i + 3;
   While[b != 0, t = Mod[a, b]; a = b; b = t];
   s = s + a; i = i + 1];
  s]]
