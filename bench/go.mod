module memtx/bench

go 1.23

require memtx v0.0.0

replace memtx => ../
