// Command dosas-server runs one DOSAS storage node: the pfs data service
// plus the Active I/O Runtime with its Contention Estimator.
//
// Usage:
//
//	dosas-server -addr :7710 [-store /var/dosas/objs] [-policy dosas|as|ts]
//	             [-bw 118e6] [-cores 2] [-reserved 1] [-pace] [-node data-0]
//
// With -store empty, stripes live in memory. The -policy flag selects the
// scheduling behaviour: "dosas" (dynamic), "as" (always run kernels here),
// or "ts" (always bounce). -pace throttles kernels to their calibrated
// rates, useful when emulating the paper's testbed on faster hardware.
//
// -pprof-addr opens the loopback debug endpoint, which also serves the
// node's OpenMetrics exposition at /metrics. -slo-rules overrides the
// built-in alert rules; dosasctl alerts and events read the results.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"dosas"
	"dosas/internal/daemonflags"
	"dosas/internal/pfs"
	"dosas/internal/tenant"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("dosas-server: ")

	addr := flag.String("addr", ":7710", "TCP listen address")
	storeDir := flag.String("store", "", "stripe store directory (empty = in-memory)")
	backend := flag.String("store-backend", "extent", "on-disk store format: extent or file (v0 one-file-per-handle)")
	fsync := flag.Bool("fsync", false, "fsync the store after every write and truncate (default off: page cache absorbs bursts)")
	fdCache := flag.Int("fd-cache", pfs.DefaultFDCacheSize, "max open descriptors cached by the store")
	bw := flag.Float64("bw", 118e6, "network bandwidth the estimator assumes, bytes/second")
	cores := flag.Int("cores", 2, "storage node core count")
	reserved := flag.Int("reserved", 1, "cores reserved for normal I/O service")
	pace := flag.Bool("pace", false, "pace kernels at calibrated per-core rates")
	node := flag.String("node", "", "node name stamped on stats and trace exports (default data@ADDR)")
	tenantLimit := flag.Int("tenant-limit", tenant.DefaultLimit, "max tenants tracked for resource attribution; 0 disables the tenant plane")
	var common daemonflags.Common
	common.RegisterDaemon(flag.CommandLine)
	common.RegisterPolicy(flag.CommandLine)
	flag.Parse()

	o, err := common.Options()
	if err != nil {
		log.Fatal(err)
	}
	o.StoreBackend, o.StoreSync, o.FDCacheSize = *backend, *fsync, *fdCache
	o.NetworkBandwidth, o.TotalCores, o.IOReservedCores, o.Pace = *bw, *cores, *reserved, *pace
	o.TenantLimit, o.DisableTenants = *tenantLimit, *tenantLimit <= 0
	if *node == "" {
		*node = "data@" + *addr
	}
	n, err := dosas.StartStorageNode(o, *node, *addr, *storeDir)
	if err != nil {
		log.Fatal(err)
	}
	if addr, err := common.ServeDebug(n.MetricsSources); err != nil {
		log.Fatal(err)
	} else if addr != "" {
		log.Printf("debug endpoint up: http://%s/debug/pprof/ and http://%s/metrics", addr, addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr)
	log.Print("shutting down")
	if err := n.Close(); err != nil {
		log.Fatal(err)
	}
}
