module codedterasort/bench

go 1.24.0

require codedterasort v0.0.0

replace codedterasort => ../
