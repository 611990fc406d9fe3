module nesc/benchmarks/nescperf

go 1.22

require nesc v0.0.0

replace nesc => ../..
