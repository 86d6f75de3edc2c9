Function[{Typed[limit, "MachineInteger"]},
 Module[{count = 0, n = 2, isP = 0, d = 0, r = 0, x = 0, i = 0,
   wi = 0, witness = 0, lo = 1, hi = 0, mid = 0, seeds = PRIMESEEDS,
   composite = 0, b = 0, e = 0},
  While[n < limit,
   isP = 0;
   If[n < 16384,
    lo = 1; hi = Length[seeds];
    While[lo <= hi,
     mid = Quotient[lo + hi, 2];
     If[seeds[[mid]] == n,
      isP = 1; lo = hi + 1,
      If[seeds[[mid]] < n, lo = mid + 1, hi = mid - 1]]],
    If[Mod[n, 2] == 0,
     isP = 0,
     d = n - 1; r = 0;
     While[Mod[d, 2] == 0, d = Quotient[d, 2]; r = r + 1];
     isP = 1;
     wi = 1;
     While[wi <= 4 && isP == 1,
      witness = seeds[[wi]];
      x = 1; b = Mod[witness, n]; e = d;
      While[e > 0,
       If[Mod[e, 2] == 1, x = Mod[x*b, n]];
       b = Mod[b*b, n];
       e = Quotient[e, 2]];
      If[x != 1 && x != n - 1,
       composite = 1;
       i = 1;
       While[i < r && composite == 1,
        x = Mod[x*x, n];
        If[x == n - 1, composite = 0];
        i = i + 1];
       If[composite == 1, isP = 0]];
      wi = wi + 1]]];
   count = count + isP;
   n = n + 1];
  count]]
