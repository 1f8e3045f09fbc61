module dosas/bench

go 1.22

require dosas v0.0.0

replace dosas => ../
