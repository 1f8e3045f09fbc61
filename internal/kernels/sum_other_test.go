//go:build !amd64

package kernels

var sum8ArchPaths []sum8Path
