// Command dosasd runs a complete single-host DOSAS cluster — metadata
// server plus N storage nodes — in one process over TCP loopback. It is
// the quickest way to stand up a cluster that dosasctl and external
// clients can talk to.
//
// Usage:
//
//	dosasd [-servers 4] [-base-port 7700] [-policy dosas] [-data DIR]
//	       [-link-rate 0] [-pace]
//
// The metadata server listens on base-port and storage node i on
// base-port+1+i. On startup dosasd prints the exact dosasctl invocation
// for the cluster.
//
// -pprof-addr opens the loopback debug endpoint, which also serves the
// whole cluster's OpenMetrics exposition at /metrics — every node's
// metrics, telemetry, and alert states under node labels.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dosas"
	"dosas/internal/daemonflags"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("dosasd: ")

	servers := flag.Int("servers", 4, "number of storage nodes")
	basePort := flag.Int("base-port", 7700, "metadata server port; storage nodes follow")
	dataDir := flag.String("data", "", "durable data directory (empty = in-memory)")
	fsync := flag.Bool("fsync", false, "fsync stores after every write and truncate (default off: page cache absorbs bursts)")
	linkRate := flag.Float64("link-rate", 0, "per-node link shaping in bytes/second (0 = unshaped)")
	pace := flag.Bool("pace", false, "pace kernels at calibrated per-core rates")
	var common daemonflags.Common
	common.RegisterDaemon(flag.CommandLine)
	common.RegisterPolicy(flag.CommandLine)
	flag.Parse()

	o, err := common.Options()
	if err != nil {
		log.Fatal(err)
	}
	o.DataServers, o.TCP, o.TCPBasePort = *servers, true, *basePort
	o.LinkRate, o.Pace, o.DataDir, o.StoreSync = *linkRate, *pace, *dataDir, *fsync
	cluster, err := dosas.StartCluster(o)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	if addr, err := common.ServeDebug(cluster.MetricsSources); err != nil {
		log.Fatal(err)
	} else if addr != "" {
		fmt.Printf("debug endpoint:  http://%s/debug/pprof/ and http://%s/metrics\n", addr, addr)
	}

	fmt.Printf("metadata server: %s\n", cluster.MetaAddr())
	for i, addr := range cluster.DataAddrs() {
		fmt.Printf("storage node %d:  %s (policy=%s)\n", i, addr, common.Policy)
	}
	fmt.Printf("\nconnect with:\n  dosasctl -meta %s -data %s ls\n",
		cluster.MetaAddr(), strings.Join(cluster.DataAddrs(), ","))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr)
	log.Print("shutting down")
}
