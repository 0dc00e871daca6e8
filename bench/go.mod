module stopwatch/bench

go 1.24

require stopwatch v0.0.0

replace stopwatch => ../
