Function[{Typed[data, "Tensor"["Integer64", 1]]},
 Module[{bins = ConstantArray[0, 256], i = 1, n = Length[data], b = 0},
  While[i <= n,
   b = data[[i]] + 1;
   bins[[b]] = bins[[b]] + 1;
   i = i + 1];
  bins]]
