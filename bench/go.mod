module github.com/accnet/acc/bench

go 1.22

require github.com/accnet/acc v0.0.0

replace github.com/accnet/acc => ../
