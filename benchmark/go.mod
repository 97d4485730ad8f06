module exaclim/benchmark

go 1.22

require exaclim v0.0.0

replace exaclim => ../
