Function[{Typed[maxIter, "MachineInteger"]},
 Module[{total = 0, xi = 0, yi = 0, step = Function[{zr, zi, cr}, zr*zr - zi*zi + cr], cr = 0., ci = 0., zr = 0., zi = 0., t = 0., iters = 0},
  While[xi <= 20,
   cr = -1. + 0.1*xi; yi = 0;
   While[yi <= 15,
    ci = -1. + 0.1*yi; zr = 0.; zi = 0.; iters = 0;
    While[iters < maxIter && zr*zr + zi*zi < 4.,
     t = step[zr, zi, cr]; zi = 2.*zr*zi + ci; zr = t; iters = iters + 1];
    total = total + iters; yi = yi + 1];
   xi = xi + 1];
  total]]
