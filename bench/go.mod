module hybridmem/bench

go 1.24

require hybridmem v0.0.0

replace hybridmem => ../
