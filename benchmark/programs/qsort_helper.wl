Function[{arr, lo, hi, cmp},
 Module[{a = arr, m = 0, i = 0, j = 0, t = 0., pivot = 0.},
  If[lo < hi,
   m = Quotient[lo + hi, 2];
   t = a[[m]]; a[[m]] = a[[hi]]; a[[hi]] = t;
   pivot = a[[hi]];
   i = lo - 1;
   j = lo;
   While[j < hi,
    If[cmp[a[[j]], pivot],
     i = i + 1;
     t = a[[i]]; a[[i]] = a[[j]]; a[[j]] = t];
    j = j + 1];
   i = i + 1;
   t = a[[i]]; a[[i]] = a[[hi]]; a[[hi]] = t;
   BenchQSortHelper[a, lo, i - 1, cmp];
   BenchQSortHelper[a, i + 1, hi, cmp]];
  0]]
