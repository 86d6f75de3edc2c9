Function[{Typed[len, "MachineInteger"]},
 NestList[
  Module[{arg = RandomReal[{0., 6.283185307179586}]}, {-Cos[arg], Sin[arg]} + #] &,
  {0., 0.},
  len]]
