module wolfc/benchmark

go 1.22

require wolfc v0.0.0

replace wolfc => ../
