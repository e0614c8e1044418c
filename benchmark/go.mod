module github.com/reprolab/face/benchmark

go 1.24

require github.com/reprolab/face v0.0.0

replace github.com/reprolab/face => ../
