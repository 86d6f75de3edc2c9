Function[{Typed[n, "MachineInteger"]},
 Module[{s = 0., x = 0., i = 0, p = 0.},
  While[i < n,
   x = 0.001*i;
   p = ((((x*0.3 + 1.1)*x - 0.7)*x + 0.25)*x - 1.9)*x + 0.5;
   s = s + p*p - 0.1*p; i = i + 1];
  Floor[s*1000.]]]
