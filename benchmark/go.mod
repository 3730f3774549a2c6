module ftoa/benchmark

go 1.24

require ftoa v0.0.0

replace ftoa => ../
