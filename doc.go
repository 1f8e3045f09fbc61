// Package dosas is a from-scratch implementation of DOSAS — the Dynamic
// Operation Scheduling Active Storage architecture of Chen, Chen and Roth
// (IEEE CLUSTER 2012) — together with every substrate it needs: a
// PVFS2-style parallel file system, a binary wire protocol, pluggable
// transports with link shaping, a library of checkpointable processing
// kernels, and a discrete-event cluster simulator that regenerates the
// paper's evaluation.
//
// Active storage ships analysis computations to the nodes that hold the
// data, returning small results instead of raw bytes. DOSAS adds the
// missing piece for shared production systems: when many processes
// converge on one storage node, its Contention Estimator re-splits the
// work between storage and compute nodes on the fly, so active storage's
// win at low concurrency never becomes a loss at high concurrency.
//
// # Quick start
//
//	cluster, err := dosas.StartCluster(dosas.Options{DataServers: 4})
//	if err != nil { ... }
//	defer cluster.Close()
//
//	fs, err := cluster.Connect(dosas.DOSAS)
//	if err != nil { ... }
//	defer fs.Close()
//
//	f, _ := fs.Create("dataset.bin")
//	f.WriteAt(data, 0)
//	res, _ := f.ReadEx("sum8", nil, 0, f.Size())
//	total := dosas.SumResult(res.Output)
//
// The call either runs the sum on the storage nodes holding the stripes
// (shipping back 8 bytes per node) or — when those nodes are contended —
// transparently falls back to reading the data and summing locally,
// exactly as the application-visible semantics of the paper's
// MPI_File_read_ex. See the examples directory for full programs and
// bench_test.go's benchmarks for the paper's experiments.
package dosas
