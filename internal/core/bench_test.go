package core

import (
	"sync"
	"testing"

	"dosas/internal/kernels"
	"dosas/internal/pfs"
	"dosas/internal/wire"
)

// BenchmarkRuntimeExecute is the storage node's whole active path without
// a network: one 8 MiB sum8 request through HandleActive (queue, worker
// hand-off, eight 1 MiB chunks, kernel).
//
//   - store=mem: the chunks are copies out of a MemStore.
//   - store=extent: the chunks are the extent files' page cache, mapped.
//   - two-runtimes: two runtimes over two extent stores, one request each
//     at once, unpaced — the shape of an in-process cluster's scan. Both
//     share the process's kernel slots, so at GOMAXPROCS=2 their kernels
//     take turns.
func BenchmarkRuntimeExecute(b *testing.B) {
	const size = 8 << 20
	data := make([]byte, size)
	var want uint64
	for i := range data {
		data[i] = byte(i*31 + 7)
		want += uint64(data[i])
	}
	start := func(b *testing.B, store pfs.Store) *Runtime {
		b.Helper()
		if _, err := store.WriteAt(1, data, 0); err != nil {
			b.Fatal(err)
		}
		rt, err := NewRuntime(RuntimeConfig{Store: store, Mode: ModeAlwaysAccept})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(rt.Close)
		return rt
	}
	extent := func(b *testing.B) pfs.Store {
		b.Helper()
		es, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { es.Close() })
		return es
	}
	run := func(b *testing.B, rt *Runtime, id uint64) {
		resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: id, Handle: 1, Length: size, Op: "sum8"})
		if err != nil {
			b.Error(err)
			return
		}
		if got := kernels.Sum8Result(resp.Result); got != want {
			b.Errorf("sum8 = %d, want %d", got, want)
		}
	}
	b.Run("store=mem", func(b *testing.B) {
		rt := start(b, pfs.NewMemStore())
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rt, uint64(i+1))
		}
	})
	b.Run("store=extent", func(b *testing.B) {
		rt := start(b, extent(b))
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rt, uint64(i+1))
		}
	})
	b.Run("two-runtimes", func(b *testing.B) {
		rts := []*Runtime{start(b, extent(b)), start(b, extent(b))}
		b.SetBytes(2 * size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, rt := range rts {
				wg.Add(1)
				go func(rt *Runtime) {
					defer wg.Done()
					run(b, rt, uint64(i+1))
				}(rt)
			}
			wg.Wait()
		}
	})
}
