Function[{Typed[x, "MachineInteger"]}, Floor[(0. + x)/2.0 + 1.5]]
