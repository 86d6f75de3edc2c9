diff[x_, x_] := 1
diff[c_Integer, x_] := 0
diff[u_ + v_, x_] := diff[u, x] + diff[v, x]
diff[u_*v_, x_] := diff[u, x]*v + u*diff[v, x]
diff[u_^n_Integer, x_] := n*u^(n - 1)*diff[u, x]
