module hawq/benchmark

go 1.22

require hawq v0.0.0

replace hawq => ../
