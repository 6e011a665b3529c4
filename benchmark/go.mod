module budgetwf/benchmark

go 1.22

require budgetwf v0.0.0

replace budgetwf => ../
