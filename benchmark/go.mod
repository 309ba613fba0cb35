module verdictdb/benchmark

go 1.24

require verdictdb v0.0.0

replace verdictdb => ../
