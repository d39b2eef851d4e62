module golake/benchmark

go 1.22

require golake v0.0.0

replace golake => ../
