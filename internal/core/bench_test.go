package core

import (
	"testing"

	"dosas/internal/kernels"
	"dosas/internal/pfs"
	"dosas/internal/wire"
)

// BenchmarkRuntimeExecute is the storage node's whole active path without
// a network: one 8 MiB sum8 request through HandleActive (queue, worker
// hand-off, eight 1 MiB page-cache reads of an extent store, kernel).
func BenchmarkRuntimeExecute(b *testing.B) {
	const size = 8 << 20
	store, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, size)
	var want uint64
	for i := range data {
		data[i] = byte(i*31 + 7)
		want += uint64(data[i])
	}
	if _, err := store.WriteAt(1, data, 0); err != nil {
		b.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{Store: store, Mode: ModeAlwaysAccept})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: uint64(i + 1), Handle: 1, Length: size, Op: "sum8"})
		if err != nil {
			b.Fatal(err)
		}
		if got := kernels.Sum8Result(resp.Result); got != want {
			b.Fatalf("sum8 = %d, want %d", got, want)
		}
	}
}
