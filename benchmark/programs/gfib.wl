gfib[n_Integer /; n < 2] := n
gfib[n_Integer] := gfib[n - 1] + gfib[n - 2]
