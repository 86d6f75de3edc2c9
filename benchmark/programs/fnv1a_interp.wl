Function[{codes},
 Module[{hash = 2166136261, i = 1, n = Length[codes]},
  While[i <= n,
   hash = BitAnd[BitXor[hash, codes[[i]]]*16777619, 4294967295];
   i = i + 1];
  hash]]
