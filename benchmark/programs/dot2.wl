dot2[{a_, b_}, {c_, d_}] := a*c + b*d
