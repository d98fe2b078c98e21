module cnnhe/benchmark

go 1.22

require cnnhe v0.0.0

replace cnnhe => ../
