package kernels

var sum8ArchPaths = []sum8Path{{"sse2", sum8Blocks, func(n int) int { return n &^ 63 }}}
