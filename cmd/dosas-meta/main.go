// Command dosas-meta runs a DOSAS metadata server: the namespace and
// stripe-layout service of the parallel file system.
//
// Usage:
//
//	dosas-meta -addr :7700 -data-servers 4 [-journal meta.wal] [-stripe 65536]
//
// SIGHUP compacts the journal in place (snapshot of the live namespace).
//
// The -data-servers count fixes the size of the cluster's data-server
// table; file layouts stripe over indices [0, N). Clients and dosasctl
// must be given the data servers' addresses in the same order everywhere.
//
// -pprof-addr opens the loopback debug endpoint, which also serves the
// node's OpenMetrics exposition at /metrics.
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
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("dosas-meta: ")

	addr := flag.String("addr", ":7700", "TCP listen address")
	nData := flag.Int("data-servers", 4, "number of data servers in the cluster")
	stripe := flag.Uint("stripe", pfs.DefaultStripeSize, "default stripe size in bytes")
	journal := flag.String("journal", "", "write-ahead journal path (empty = volatile namespace)")
	var common daemonflags.Common
	common.RegisterDaemon(flag.CommandLine)
	flag.Parse()

	o, err := common.Options()
	if err != nil {
		log.Fatal(err)
	}
	o.DataServers, o.StripeSize = *nData, uint32(*stripe)
	n, err := dosas.StartMetaNode(o, *addr, *journal)
	if err != nil {
		log.Fatal(err)
	}
	if addr, err := common.ServeDebug(n.MetricsSources); err != nil {
		log.Fatal(err)
	} else if addr != "" {
		log.Printf("debug endpoint up: http://%s/debug/pprof/ and http://%s/metrics", addr, addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGHUP, os.Interrupt, syscall.SIGTERM)
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		if err := n.CompactJournal(); err != nil {
			log.Printf("journal compaction failed: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr)
	log.Print("shutting down")
	if err := n.Close(); err != nil {
		log.Fatal(err)
	}
}
