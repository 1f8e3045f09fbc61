// Command dosas-bench runs the live experiments whose results are
// committed as BENCH_tenant.json, BENCH_archive.json and BENCH_qos.json.
// The paper's tables and figures are the root package's benchmarks
// (`make bench-paper`).
//
// Usage:
//
//	dosas-bench -exp <id>
//
// Experiments (-exp):
//
//	noisy-neighbor
//	          per-tenant attribution: an aggressor tenant storms one node
//	          while a victim trickles; checks the queue-wait attribution,
//	          the noisy-neighbor alert, and the plane's overhead
//	          (writes BENCH_tenant.json)
//	archive   durable telemetry archive: A/B overhead of archiving every
//	          sampler tick (budget <1%) and restart continuity of the
//	          queried series (writes BENCH_archive.json)
//	qos-isolation
//	          weighted-fair admission: a batch storm vs a victim tenant
//	          on one paced disk, gate on/off vs uncontended baseline
//	          (writes BENCH_qos.json)
//	straggler hedged reads and latency-aware replica selection under
//	          staggered disk brownouts (writes BENCH_qos.json)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dosas/internal/daemonflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dosas-bench: ")
	exp := flag.String("exp", "", "experiment: noisy-neighbor, archive, qos-isolation or straggler")
	var common daemonflags.Common
	common.RegisterBase(flag.CommandLine)
	flag.Parse()
	if _, err := common.ServeDebug(nil); err != nil {
		log.Fatal(err)
	}

	all := map[string]func(){
		"noisy-neighbor": noisyNeighbor,
		"archive":        archiveExp,
		"qos-isolation":  qosIsolation,
		"straggler":      stragglerExp,
	}
	fn, ok := all[*exp]
	if !ok {
		log.Printf("unknown experiment %q", *exp)
		flag.Usage()
		os.Exit(2)
	}
	fn()
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}
