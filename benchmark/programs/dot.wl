Function[{Typed[a, "Tensor"["Real64", 2]], Typed[b, "Tensor"["Real64", 2]]}, Dot[a, b]]
