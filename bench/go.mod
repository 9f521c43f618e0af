module odbgc/bench

go 1.22

require odbgc v0.0.0

replace odbgc => ../
