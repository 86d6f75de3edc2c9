Function[{Typed[x, "MachineInteger"]}, x*x + 1]
