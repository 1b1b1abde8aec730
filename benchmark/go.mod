module axmltx/benchmark

go 1.22

require axmltx v0.0.0

replace axmltx => ../
