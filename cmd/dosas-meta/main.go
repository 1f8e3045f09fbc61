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

	"dosas/internal/daemonflags"
	"dosas/internal/metrics"
	"dosas/internal/openmetrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/transport"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("dosas-meta: ")

	addr := flag.String("addr", ":7700", "TCP listen address")
	nData := flag.Int("data-servers", 4, "number of data servers in the cluster")
	stripe := flag.Uint("stripe", pfs.DefaultStripeSize, "default stripe size in bytes")
	journal := flag.String("journal", "", "write-ahead journal path (empty = volatile namespace)")
	var common daemonflags.Common
	common.RegisterBase(flag.CommandLine)
	common.RegisterTelemetry(flag.CommandLine)
	common.RegisterObservability(flag.CommandLine)
	common.RegisterQoS(flag.CommandLine)
	flag.Parse()

	weights, err := common.TenantWeights()
	if err != nil {
		log.Fatal(err)
	}
	var qos *pfs.QoSConfig
	if !common.NoQoS {
		qos = &pfs.QoSConfig{Slots: common.QoSSlots, Weights: weights}
	}

	tele := common.Sampler()
	reg := metrics.NewRegistry()

	events, err := common.EventLog("meta", os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	defer events.Close()

	// The durable telemetry archive persists every sampler tick; it is
	// deferred before the meta server so it closes after the sampler
	// stops, sealing the final downsample buckets.
	archive, err := common.Archive("meta", tele, events)
	if err != nil {
		log.Fatal(err)
	}
	defer archive.Close()

	var engine *slo.Engine
	if tele != nil {
		rules, err := common.Rules()
		if err != nil {
			log.Fatal(err)
		}
		engine, err = slo.NewEngine(slo.Config{
			Rules: rules, Sampler: tele, Events: events, Metrics: reg, Node: "meta",
		})
		if err != nil {
			log.Fatal(err)
		}
		tele.OnTick(engine.Eval)
	}

	if addr, err := common.ServeDebug(func() []openmetrics.Source {
		return []openmetrics.Source{{
			Node: "meta", Role: "meta",
			Metrics: reg, Telemetry: tele, SLO: engine, Events: events,
		}}
	}); err != nil {
		log.Fatal(err)
	} else if addr != "" {
		events.Info("meta", "debug endpoint up", "url", "http://"+addr+"/debug/pprof/", "metrics", "http://"+addr+"/metrics")
	}

	meta, err := pfs.NewMetaServer(pfs.MetaConfig{
		NumDataServers:    *nData,
		DefaultStripeSize: uint32(*stripe),
		JournalPath:       *journal,
		Metrics:           reg,
		Telemetry:         tele,
		Events:            events,
		SLO:               engine,
		Archive:           archive,
		QoS:               qos,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer meta.Close()

	l, err := transport.TCP{}.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := pfs.NewServer(l, meta)
	events.Info("meta", "serving namespace",
		"addr", srv.Addr(), "data_servers", fmt.Sprint(*nData), "journal", *journal)

	go func() {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		for range hup {
			if err := meta.CompactJournal(); err != nil {
				log.Printf("journal compaction failed: %v", err)
			}
		}
	}()
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr)
		events.Info("meta", "shutting down")
		srv.Close()
	}()
	if err := srv.Run(); err != transport.ErrClosed {
		log.Fatal(err)
	}
}
