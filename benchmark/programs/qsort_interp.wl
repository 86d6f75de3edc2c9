qsHelp[a0_, lo_, hi_, cmp_] := Module[{a = a0, m, i, j, t, pivot},
  If[lo < hi,
   m = Quotient[lo + hi, 2];
   t = a[[m]]; a[[m]] = a[[hi]]; a[[hi]] = t;
   pivot = a[[hi]];
   i = lo - 1; j = lo;
   While[j < hi,
    If[cmp[a[[j]], pivot], i = i + 1; t = a[[i]]; a[[i]] = a[[j]]; a[[j]] = t];
    j = j + 1];
   i = i + 1;
   t = a[[i]]; a[[i]] = a[[hi]]; a[[hi]] = t;
   a = qsHelp[a, lo, i - 1, cmp];
   a = qsHelp[a, i + 1, hi, cmp]];
  a]
