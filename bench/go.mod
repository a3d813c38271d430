module dwst/bench

go 1.22

require dwst v0.0.0

replace dwst => ../
