(* Differential corpus for the tiered-execution smoke test (ISSUE 5). *)
(* cmd's TestTierDifferential runs this through wolfrepl plain and in every *)
(* tiered mode (-autocompile -autocompile-threshold 2) and requires bit-identical *)
(* stdout. Every construct the promotion pipeline touches is exercised: *)
(* literal base cases, If-based recursion, machine-integer overflow into *)
(* bignums, reals, mutual recursion, mid-session redefinition, and Clear. *)
fib[0] = 0
fib[1] = 1
fib[n_] := fib[n - 1] + fib[n - 2]
fib[10]
fib[18]
fib[22]
fib[22]
(* If-based recursion; fact[25] overflows Integer64 mid-recursion, so the *)
(* compiled tier must soft-fall back to interpreter bignums. *)
fact[n_] := If[n < 2, 1, n*fact[n - 1]]
fact[10]
fact[12]
fact[12]
fact[25]
fact[30]
(* Guard miss: a bignum argument never fits the compiled signature. *)
square[n_] := n*n
square[3]
square[4]
square[5]
square[2^70]
(* Real-typed definition. *)
rhalf[x_Real] := x*x + 0.5
rhalf[1.5]
rhalf[2.5]
rhalf[3.5]
rhalf[4.5]
(* Mutual recursion: both members promote as a group. *)
ma[n_] := If[n < 2, n, mb[n - 1] + ma[n - 2]]
mb[n_] := If[n < 2, n, ma[n - 1] + mb[n - 2]]
ma[12]
mb[12]
ma[16]
mb[16]
(* Redefinition mid-session: the installed entry must be uninstalled and *)
(* the new semantics take effect immediately. *)
square[n_] := n + 1
square[3]
square[4]
square[5]
(* Clear drops the definition entirely; the call prints unevaluated. *)
Clear[fact]
fact[5]
fib[20]
