module github.com/nectar-repro/nectar/benchmark

go 1.22

require github.com/nectar-repro/nectar v0.0.0

replace github.com/nectar-repro/nectar => ../
