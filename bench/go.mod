module dupserve/bench

go 1.22

require dupserve v0.0.0

replace dupserve => ../
