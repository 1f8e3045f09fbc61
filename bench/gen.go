package main

import (
	"encoding/binary"
	"math/rand"
)

// Content generator. Every byte the benchmark stores is a pure function of
// (seed, stream key, position), so any range can be checked after the fact
// without keeping a copy of what was written: word i of a stream is
// mix(key + i·golden). Positions and lengths are multiples of 8.

const golden = 0x9e3779b97f4a7c15

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// streamKey derives the generator key of one content stream: a file's
// preloaded bytes (version 0) or one of the write patterns (version ≥ 1).
func streamKey(seed int64, file, version uint32) uint64 {
	return mix(uint64(seed)*golden ^ uint64(file)<<32 ^ uint64(version))
}

// fill writes the stream's bytes for [off, off+len(p)) into p.
func fill(p []byte, key, off uint64) {
	x := key + off/8*golden
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], mix(x))
		x += golden
	}
}

// check reports whether p holds the stream's bytes for [off, off+len(p)).
func check(p []byte, key, off uint64) bool {
	x := key + off/8*golden
	for i := 0; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != mix(x) {
			return false
		}
		x += golden
	}
	return true
}

// byteSum is the sum8 kernel's expected output over p.
func byteSum(p []byte) uint64 {
	var t uint64
	for _, b := range p {
		t += uint64(b)
	}
	return t
}

// newRand returns the workload's random source for one load stream; the
// same (seed, stream) always yields the same operation sequence.
func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}
