Function[{Typed[v0, "Tensor"["Real64", 1]],
  Typed[cmp, {"Real64", "Real64"} -> "Boolean"]},
 Module[{v = Native`Copy[v0]},
  BenchQSortHelper[v, 1, Length[v], cmp];
  v]]
