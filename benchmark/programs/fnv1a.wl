Function[{Typed[s, "String"]},
 Module[{hash = 2166136261, i = 1, n = Native`StringByteLength[s]},
  While[i <= n,
   hash = BitAnd[BitXor[hash, Native`StringByte[s, i]]*16777619, 4294967295];
   i = i + 1];
  hash]]
