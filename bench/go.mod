module evr/bench

go 1.22

require evr v0.0.0

replace evr => ../
