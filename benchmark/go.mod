module drtmr/benchmark

go 1.22

require drtmr v0.0.0

replace drtmr => ../
