//go:build !amd64

package kernels

// sum8Bytes adds the bytes of p with the portable word loop: there is no
// block loop for this GOARCH.
func sum8Bytes(p []byte) uint64 { return sum8Words(p) }
