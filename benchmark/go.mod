module mralloc/benchmark

go 1.24

require mralloc v0.0.0

replace mralloc => ../
