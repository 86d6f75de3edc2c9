Function[{Typed[n, "MachineInteger"]},
 If[n < 2, n, cfib[n - 1] + cfib[n - 2]]]
