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

	"dosas/internal/audit"
	"dosas/internal/core"
	"dosas/internal/daemonflags"
	"dosas/internal/metrics"
	"dosas/internal/openmetrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/transport"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("dosas-server: ")

	addr := flag.String("addr", ":7710", "TCP listen address")
	storeDir := flag.String("store", "", "stripe store directory (empty = in-memory)")
	backend := flag.String("store-backend", "extent", "on-disk store format: extent or file (v0 one-file-per-handle)")
	fsync := flag.Bool("fsync", false, "fsync the store after every write and truncate (default off: page cache absorbs bursts)")
	fdCache := flag.Int("fd-cache", pfs.DefaultFDCacheSize, "max open descriptors cached by the store")
	policy := flag.String("policy", "dosas", "scheduling policy: dosas, as, or ts")
	solverName := flag.String("solver", "", "dynamic-mode scheduling algorithm: exhaustive, maxgain (default), all-active, all-normal")
	bw := flag.Float64("bw", 118e6, "network bandwidth the estimator assumes, bytes/second")
	cores := flag.Int("cores", 2, "storage node core count")
	reserved := flag.Int("reserved", 1, "cores reserved for normal I/O service")
	pace := flag.Bool("pace", false, "pace kernels at calibrated per-core rates")
	node := flag.String("node", "", "node name stamped on stats and trace exports (default data@ADDR)")
	tenantLimit := flag.Int("tenant-limit", tenant.DefaultLimit, "max tenants tracked for resource attribution; 0 disables the tenant plane")
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

	if *node == "" {
		*node = "data@" + *addr
	}

	var mode core.Mode
	switch *policy {
	case "dosas":
		mode = core.ModeDynamic
	case "as":
		mode = core.ModeAlwaysAccept
	case "ts":
		mode = core.ModeAlwaysBounce
	default:
		log.Fatalf("unknown -policy %q (want dosas, as, or ts)", *policy)
	}
	var solver core.Solver
	if *solverName != "" {
		s, err := core.SolverByName(*solverName)
		if err != nil {
			log.Fatal(err)
		}
		solver = s
	}

	var store pfs.Store
	switch {
	case *storeDir == "":
		store = pfs.NewMemStore()
	case *backend == "extent":
		es, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: *storeDir, Sync: *fsync, FDCacheSize: *fdCache})
		if err != nil {
			log.Fatal(err)
		}
		store = es
	case *backend == "file":
		fs, err := pfs.NewFileStoreConfig(pfs.FileStoreConfig{Dir: *storeDir, Sync: *fsync, FDCacheSize: *fdCache})
		if err != nil {
			log.Fatal(err)
		}
		store = fs
	default:
		log.Fatalf("unknown -store-backend %q (want extent or file)", *backend)
	}
	defer store.Close()

	reg := metrics.NewRegistry()
	tr := trace.NewRecorder(4096)
	tr.SetNode(*node)
	tele := common.Sampler()
	alog := audit.NewLog(4096)
	alog.SetNode(*node)

	// The event log tees to stderr so the daemon console keeps its
	// running commentary while dosasctl events reads the same ring over
	// the wire.
	events, err := common.EventLog(*node, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	defer events.Close()

	// The durable telemetry archive persists every sampler tick; it is
	// deferred before the runtime so it closes after the sampler stops,
	// sealing the final downsample buckets.
	archive, err := common.Archive(*node, tele, events)
	if err != nil {
		log.Fatal(err)
	}
	defer archive.Close()

	// The tenant table feeds per-tenant accounting in the data service
	// and runtime, the dosas_tenant metric families, and the
	// noisy-neighbor alert annotation.
	var tenants *tenant.Table
	if *tenantLimit > 0 {
		tenants = tenant.NewTable(*tenantLimit)
	}

	var engine *slo.Engine
	if tele != nil {
		rules, err := common.Rules()
		if err != nil {
			log.Fatal(err)
		}
		engCfg := slo.Config{
			Rules: rules, Sampler: tele, Events: events, Metrics: reg, Node: *node,
		}
		if tenants != nil {
			engCfg.Annotate = func(rule string) []string {
				if rule != "noisy-neighbor" {
					return nil
				}
				top, share := tenants.TopWait()
				if top == "" {
					return nil
				}
				return []string{"tenant", top, "share", fmt.Sprintf("%.2f", share)}
			}
		}
		engine, err = slo.NewEngine(engCfg)
		if err != nil {
			log.Fatal(err)
		}
		tele.OnTick(engine.Eval)
	}

	if addr, err := common.ServeDebug(func() []openmetrics.Source {
		return []openmetrics.Source{{
			Node: *node, Role: "data",
			Metrics: reg, Telemetry: tele, SLO: engine, Events: events, Tenants: tenants,
		}}
	}); err != nil {
		log.Fatal(err)
	} else if addr != "" {
		events.Info("server", "debug endpoint up", "url", "http://"+addr+"/debug/pprof/", "metrics", "http://"+addr+"/metrics")
	}

	ds, err := pfs.NewDataServer(pfs.DataConfig{
		Store: store, Metrics: reg, Node: *node, Trace: tr,
		Telemetry: tele, Audit: alog, Events: events, SLO: engine, Tenants: tenants,
		Archive: archive, QoS: qos,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	rt, err := core.NewRuntime(core.RuntimeConfig{
		Store:  store,
		Mode:   mode,
		Solver: solver,
		Audit:  alog,
		Estimator: core.EstimatorConfig{
			BW:              *bw,
			TotalCores:      *cores,
			IOReservedCores: *reserved,
		},
		Pace:          *pace,
		Metrics:       reg,
		Trace:         tr,
		Node:          *node,
		Telemetry:     tele,
		Events:        events,
		Tenants:       tenants,
		TenantWeights: weights,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	ds.SetActiveHandler(rt)

	l, err := transport.TCP{}.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := pfs.NewServer(l, ds)
	srv.SetFrameStats(ds.WireStats())
	events.Info("server", "serving stripes",
		"addr", srv.Addr(), "policy", mode.String(),
		"cores", fmt.Sprint(*cores), "reserved", fmt.Sprint(*reserved),
		"bw_mbps", fmt.Sprintf("%.0f", *bw/1e6), "pace", fmt.Sprint(*pace), "store", *storeDir)

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr)
		events.Info("server", "shutting down")
		log.Printf("final metrics:\n%s", reg.Dump())
		srv.Close()
	}()
	if err := srv.Run(); err != transport.ErrClosed {
		log.Fatal(err)
	}
}
