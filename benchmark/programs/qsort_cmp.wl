Function[{Typed[a, "Real64"], Typed[b, "Real64"]}, a < b]
