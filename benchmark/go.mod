module lazyctrl/benchmark

go 1.24

require lazyctrl v0.0.0

replace lazyctrl => ../
