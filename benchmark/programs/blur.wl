Function[{Typed[img, "Tensor"["Real64", 2]], Typed[rows, "MachineInteger"], Typed[cols, "MachineInteger"]},
 Module[{out = ConstantArray[0., {rows, cols}], i = 2, j = 2},
  While[i < rows,
   j = 2;
   While[j < cols,
    out[[i, j]] = (img[[i - 1, j - 1]] + 2.*img[[i - 1, j]] + img[[i - 1, j + 1]] +
      2.*img[[i, j - 1]] + 4.*img[[i, j]] + 2.*img[[i, j + 1]] +
      img[[i + 1, j - 1]] + 2.*img[[i + 1, j]] + img[[i + 1, j + 1]])/16.;
    j = j + 1];
   i = i + 1];
  out]]
