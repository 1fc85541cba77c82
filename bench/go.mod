module rbpc/bench

go 1.22

require rbpc v0.0.0

replace rbpc => ../
