// Command dosasctl is the operator CLI for a running DOSAS cluster.
//
// Usage:
//
//	dosasctl -meta HOST:PORT -data HOST:PORT[,HOST:PORT...] [-scheme dosas]
//	         [-tenant ID] [-slow-threshold 50ms -slow-dir DIR] COMMAND ...
//
// Commands:
//
//	ls [PREFIX]                      list files
//	stat NAME                        show file metadata
//	put LOCAL NAME [WIDTH [REPLICAS]] upload a local file (WIDTH storage nodes; 0 = all)
//	get NAME LOCAL                   download a file
//	rm NAME                          remove a file
//	readex NAME OP [OFF LEN]         run a kernel over a file range
//	fsck NAME [deep]                 verify stripe/replica consistency
//	repair NAME                      restore damaged replicas from intact copies
//	ops                              list available kernels
//	calibrate OP                     measure this host's kernel rate (Table III style)
//	probe                            dump every storage node's load status
//	stats [-json]                    dump every node's metric snapshot
//	trace ID                         stitch the cross-node timeline of one request
//	                                 (ID is a request id or a distributed trace id)
//	health                           per-node liveness and resource readiness
//	alerts [-json]                   every node's SLO alert table (exit 1 if any
//	                                 rule is firing)
//	events [-follow] [-level L] [-n N] merged cluster event timeline; -follow
//	                                 tails new events, -level filters
//	                                 (debug|info|warn|error), -n keeps the
//	                                 newest N per node
//	top [-once] [WINDOW]             refreshing cluster-wide telemetry view
//	                                 (-once prints a single frame; WINDOW like 10s)
//	query SERIES [-since 1h] [-until 5m] [-step 10s] [-agg avg|min|max|sum|last]
//	      [-node NAME] [-json]       range-query the durable telemetry archives
//	                                 (-archive-dir on the daemons): per-node
//	                                 table and sparklines, -agg merges nodes
//	report [-alert RULE | -since 1h [-until 5m]] [-step 10s] [-series a,b] [-json]
//	                                 stitch alert transitions, events, and
//	                                 archived telemetry into one incident
//	                                 bundle (-alert centers it on a rule)
//	tenants [-sort bytes|cpu|wait] [-json] [-per-node]
//	                                 per-tenant resource attribution: bytes, ops,
//	                                 kernel CPU, and queue wait by tenant ID,
//	                                 merged cluster-wide (or per node)
//	slow DIR                         print the slow-request flight bundles a client
//	                                 persisted under DIR (ClientOptions.SlowDir)
//	explain [-log FILE] [last N|ID]  print each scheduling decision's rationale:
//	                                 predicted vs actual costs, margin to the
//	                                 decision boundary, env at decision time
//	whatif [-policy p1,p2] [-log FILE] replay the decision log under alternative
//	                                 policies/environments and score the regret
//	audit [-log FILE]                dump the decision log as JSON (save the
//	                                 output for later explain/whatif -log)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dosas"
	"dosas/internal/daemonflags"
	"dosas/internal/pfs"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

func usageExit() {
	fmt.Fprintln(os.Stderr, "usage: dosasctl -meta ADDR -data ADDR[,ADDR...] [-scheme dosas|as|ts] COMMAND ...")
	fmt.Fprintln(os.Stderr, "commands: ls, stat, put, get, rm, readex, fsck, repair, ops, calibrate, probe, stats, trace, health, alerts, events, top, query, report, tenants, slow, explain, whatif, audit")
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dosasctl: ")

	meta := flag.String("meta", "127.0.0.1:7700", "metadata server address")
	data := flag.String("data", "", "comma-separated data server addresses, in cluster order")
	schemeName := flag.String("scheme", "dosas", "client scheme for readex: dosas, as, or ts")
	tenantID := flag.String("tenant", "", "tenant ID stamped on every request for per-tenant resource attribution (empty = default)")
	slowThreshold := flag.Duration("slow-threshold", 0, "flag readex calls slower than this and capture a flight bundle (0 = off)")
	slowDir := flag.String("slow-dir", "", "directory to persist captured flight bundles (see the slow command)")
	var common daemonflags.Common
	common.RegisterBase(flag.CommandLine)
	common.RegisterHedge(flag.CommandLine)
	flag.Parse()
	if _, err := common.ServeDebug(nil); err != nil {
		log.Fatal(err)
	}
	args := flag.Args()
	if len(args) == 0 {
		usageExit()
	}

	var scheme dosas.Scheme
	switch *schemeName {
	case "dosas":
		scheme = dosas.DOSAS
	case "as":
		scheme = dosas.AS
	case "ts":
		scheme = dosas.TS
	default:
		log.Fatalf("unknown -scheme %q", *schemeName)
	}

	// Local commands that need no cluster.
	switch args[0] {
	case "ops":
		for _, op := range dosas.Ops() {
			fmt.Printf("%-12s %8.1f MB/s/core (calibrated default)\n", op, dosas.RateFor(op)/1e6)
		}
		return
	case "calibrate":
		if len(args) != 2 {
			log.Fatal("usage: calibrate OP")
		}
		rate, err := dosas.Calibrate(args[1], 64<<20, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %.1f MB/s per core on this host\n", args[1], rate/1e6)
		return
	case "slow":
		// Reads a client's persisted flight journal from disk; needs no
		// cluster connection.
		if len(args) != 2 {
			log.Fatal("usage: slow DIR")
		}
		bundles, err := dosas.ReadSlowBundles(args[1])
		if err != nil {
			log.Fatal(err)
		}
		if len(bundles) == 0 {
			fmt.Println("no slow-request bundles")
			return
		}
		for _, b := range bundles {
			fmt.Print(dosas.FormatSlowBundle(b))
		}
		return
	}

	// Decision-audit commands connect lazily: with -log FILE they run
	// entirely offline.
	switch args[0] {
	case "explain", "whatif", "audit":
		runAuditCommand(args, func() *dosas.FS {
			addrs := strings.Split(*data, ",")
			if *data == "" || len(addrs) == 0 {
				log.Fatal("need -data with at least one storage server address (or -log FILE)")
			}
			fs, err := dosas.Connect(dosas.ClientOptions{MetaAddr: *meta, DataAddrs: addrs, Scheme: scheme, Tenant: *tenantID})
			if err != nil {
				log.Fatal(err)
			}
			return fs
		})
		return
	}

	dataAddrs := strings.Split(*data, ",")
	if *data == "" || len(dataAddrs) == 0 {
		log.Fatal("need -data with at least one storage server address")
	}
	fs, err := dosas.Connect(dosas.ClientOptions{
		MetaAddr:      *meta,
		DataAddrs:     dataAddrs,
		Scheme:        scheme,
		Tenant:        *tenantID,
		SlowThreshold: *slowThreshold,
		SlowDir:       *slowDir,
		HedgeAfter:    common.HedgeAfter,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	switch args[0] {
	case "ls":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		names, err := fs.List(prefix)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "stat":
		if len(args) != 2 {
			log.Fatal("usage: stat NAME")
		}
		fi, err := fs.Stat(args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("name:    %s\nsize:    %d bytes\nstripe:  %d bytes\nwidth:   %d servers\nreplicas: %d\nmtime:   %s\n",
			fi.Name, fi.Size, fi.StripeSize, fi.Width, fi.Replicas, fi.ModTime.Format("2006-01-02 15:04:05"))
	case "put":
		if len(args) < 3 {
			log.Fatal("usage: put LOCAL NAME [WIDTH [REPLICAS]]")
		}
		width, replicas := 0, 0
		if len(args) > 3 {
			w, err := strconv.Atoi(args[3])
			if err != nil {
				log.Fatalf("bad WIDTH %q", args[3])
			}
			width = w
		}
		if len(args) > 4 {
			r, err := strconv.Atoi(args[4])
			if err != nil {
				log.Fatalf("bad REPLICAS %q", args[4])
			}
			replicas = r
		}
		blob, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		f, err := fs.Create(args[2], dosas.CreateOptions{Width: width, Replicas: replicas})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(blob, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stored %d bytes as %s over %d server(s), %d replica(s)\n",
			len(blob), args[2], f.StripeWidth(), f.Replicas())
	case "get":
		if len(args) != 3 {
			log.Fatal("usage: get NAME LOCAL")
		}
		f, err := fs.Open(args[1])
		if err != nil {
			log.Fatal(err)
		}
		blob, err := f.ReadAll()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(args[2], blob, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fetched %d bytes\n", len(blob))
	case "rm":
		if len(args) != 2 {
			log.Fatal("usage: rm NAME")
		}
		if err := fs.Remove(args[1]); err != nil {
			log.Fatal(err)
		}
	case "readex":
		if len(args) < 3 {
			log.Fatal("usage: readex NAME OP [OFF LEN]")
		}
		f, err := fs.Open(args[1])
		if err != nil {
			log.Fatal(err)
		}
		off, length := uint64(0), f.Size()
		if len(args) >= 5 {
			o, err1 := strconv.ParseUint(args[3], 10, 64)
			l, err2 := strconv.ParseUint(args[4], 10, 64)
			if err1 != nil || err2 != nil {
				log.Fatal("bad OFF/LEN")
			}
			off, length = o, l
		}
		res, err := f.ReadEx(args[2], opParams(args[2]), off, length)
		if err != nil {
			log.Fatal(err)
		}
		printResult(args[2], res)
	case "fsck":
		if len(args) < 2 {
			log.Fatal("usage: fsck NAME [deep]")
		}
		deep := len(args) > 2 && args[2] == "deep"
		rep, err := fs.Verify(args[1], deep)
		if err != nil {
			log.Fatal(err)
		}
		printReport(rep)
		if !rep.OK() {
			os.Exit(1)
		}
	case "repair":
		if len(args) != 2 {
			log.Fatal("usage: repair NAME")
		}
		rep, err := fs.Repair(args[1])
		if err != nil {
			log.Fatal(err)
		}
		printReport(rep)
		if !rep.OK() {
			os.Exit(1)
		}
	case "probe":
		probeAll(*meta, dataAddrs)
	case "health":
		if !healthAll(fs) {
			os.Exit(1)
		}
	case "alerts":
		asJSON := len(args) > 1 && args[1] == "-json"
		if !alertsAll(fs, asJSON) {
			os.Exit(1)
		}
	case "events":
		follow := false
		min := dosas.EventDebug
		limit := 0
		rest := args[1:]
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case "-follow":
				follow = true
			case "-level":
				i++
				if i >= len(rest) {
					log.Fatal("usage: events [-follow] [-level debug|info|warn|error] [-n N]")
				}
				lv, err := dosas.ParseEventLevel(rest[i])
				if err != nil {
					log.Fatal(err)
				}
				min = lv
			case "-n":
				i++
				if i >= len(rest) {
					log.Fatal("usage: events [-follow] [-level debug|info|warn|error] [-n N]")
				}
				n, err := strconv.Atoi(rest[i])
				if err != nil || n < 0 {
					log.Fatalf("bad -n %q", rest[i])
				}
				limit = n
			default:
				log.Fatalf("unknown events option %q", rest[i])
			}
		}
		eventsLoop(fs, min, limit, follow)
	case "top":
		once := false
		window := 10 * time.Second
		for _, a := range args[1:] {
			if a == "-once" {
				once = true
				continue
			}
			d, err := time.ParseDuration(a)
			if err != nil {
				log.Fatalf("bad WINDOW %q", a)
			}
			window = d
		}
		topLoop(fs, window, once)
	case "query":
		runQuery(fs, args[1:])
	case "report":
		runReport(fs, args[1:])
	case "tenants":
		sortKey := ""
		asJSON, perNode := false, false
		rest := args[1:]
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case "-json":
				asJSON = true
			case "-per-node":
				perNode = true
			case "-sort":
				i++
				if i >= len(rest) {
					log.Fatal("usage: tenants [-sort bytes|cpu|wait] [-json] [-per-node]")
				}
				switch rest[i] {
				case "bytes", "cpu", "wait", "name":
					sortKey = rest[i]
				default:
					log.Fatalf("bad -sort %q (want bytes, cpu, wait, or name)", rest[i])
				}
			default:
				log.Fatalf("unknown tenants option %q", rest[i])
			}
		}
		tenantsAll(fs, sortKey, asJSON, perNode)
	case "stats":
		asJSON := len(args) > 1 && args[1] == "-json"
		statsAll(*meta, dataAddrs, asJSON)
	case "trace":
		if len(args) != 2 {
			log.Fatal("usage: trace ID  (request id or trace id)")
		}
		id, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			log.Fatalf("bad ID %q", args[1])
		}
		traceOne(dataAddrs, id)
	default:
		usageExit()
	}
}

// opParams supplies sensible CLI defaults for parameterised kernels.
func opParams(op string) []byte {
	switch op {
	case "gaussian2d":
		return dosas.GaussianParams(1024, false)
	case "count":
		return []byte("data")
	case "downsample":
		return dosas.DownsampleParams(16)
	case "kmeans1d":
		return dosas.KMeansParams(4, 0, 256)
	default:
		return nil
	}
}

func printResult(op string, res *dosas.Result) {
	fmt.Printf("elapsed: %v, shipped %d raw bytes\n", res.Elapsed, res.BytesShipped())
	for _, p := range res.Parts {
		fmt.Printf("  server %d: %d bytes ran %s\n", p.Server, p.Bytes, p.Where)
	}
	switch op {
	case "sum8":
		fmt.Printf("sum = %d\n", dosas.SumResult(res.Output))
	case "sum64":
		fmt.Printf("sum = %g\n", dosas.Sum64Result(res.Output))
	case "count", "wordcount":
		fmt.Printf("count = %d\n", dosas.CountResult(res.Output))
	case "minmax":
		mn, mx, err := dosas.MinMaxResult(res.Output)
		if err == nil {
			fmt.Printf("min = %g, max = %g\n", mn, mx)
		}
	case "moments":
		if m, err := dosas.MomentsResult(res.Output); err == nil {
			fmt.Printf("count = %d, mean = %g, variance = %g\n", m.Count, m.Mean(), m.Variance())
		}
	case "kmeans1d":
		if cs, err := dosas.KMeansResult(res.Output); err == nil {
			for _, c := range cs {
				fmt.Printf("centroid %.4f: %d samples\n", c.Centroid, c.Count)
			}
		}
	case "gaussian2d":
		if d, err := dosas.GaussianDigestResult(res.Output); err == nil {
			fmt.Printf("pixels = %d, mean = %.2f, min = %d, max = %d\n",
				d.Pixels, float64(d.Sum)/float64(d.Pixels), d.Min, d.Max)
		}
	default:
		fmt.Printf("result: %d bytes\n", len(res.Output))
	}
}

func printReport(rep *dosas.VerifyReport) {
	if rep.OK() {
		fmt.Printf("%s: OK (%d bytes deep-checked)\n", rep.Name, rep.BytesChecked)
		return
	}
	fmt.Printf("%s: %d issue(s)\n", rep.Name, len(rep.Issues))
	for _, is := range rep.Issues {
		fmt.Printf("  %s\n", is)
	}
}

// statsAll dumps every node's metric snapshot, human-readable or as one
// JSON object keyed by node name.
func statsAll(meta string, dataAddrs []string, asJSON bool) {
	pool := pfs.NewPool(transport.TCP{})
	defer pool.Close()
	type nodeStats struct {
		Addr  string              `json:"addr"`
		Role  string              `json:"role"`
		Mode  string              `json:"mode,omitempty"`
		Stats dosas.StatsSnapshot `json:"stats"`
	}
	collected := make(map[string]nodeStats)
	var order []string
	fetch := func(fallbackName, addr string) {
		var sr pfs.StatsReply
		name, err := pfs.Introspect(pool, addr, pfs.KindStats, nil, &sr)
		if err != nil {
			log.Printf("%s %s: unreachable: %v", fallbackName, addr, err)
			return
		}
		if name == "" {
			name = fallbackName
		}
		collected[name] = nodeStats{Addr: addr, Role: sr.Role, Mode: sr.Mode, Stats: sr.Stats}
		order = append(order, name)
	}
	fetch("meta", meta)
	for i, addr := range dataAddrs {
		fetch(fmt.Sprintf("data-%d", i), addr)
	}
	if asJSON {
		out, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	for _, name := range order {
		ns := collected[name]
		head := fmt.Sprintf("%s (%s", name, ns.Role)
		if ns.Mode != "" {
			head += ", mode " + ns.Mode
		}
		fmt.Printf("%s) @ %s\n", head, ns.Addr)
		printSnapshot(ns.Stats)
	}
}

// printSnapshot renders one node's metrics in sorted "name value" lines.
func printSnapshot(s dosas.StatsSnapshot) {
	var lines []string
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("  counter %-28s %d", n, v))
	}
	for n, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("  gauge   %-28s %d", n, v))
	}
	for n, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("  hist    %-28s count=%d mean=%.2f p50=%.2f p99=%.2f",
			n, h.Count, h.Mean, h.P50, h.P99))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// traceOne fetches one request's events from every storage node and
// prints the stitched cross-node timeline. The ID is tried first as a
// wire-level request id, then as a distributed trace id.
func traceOne(dataAddrs []string, id uint64) {
	pool := pfs.NewPool(transport.TCP{})
	defer pool.Close()
	fetch := func(params pfs.TraceParams) []dosas.TraceEvent {
		var sets [][]dosas.TraceEvent
		for i, addr := range dataAddrs {
			var tr pfs.TraceReply
			if _, err := pfs.Introspect(pool, addr, pfs.KindTrace, params, &tr); err != nil {
				log.Printf("data[%d] %s: unreachable: %v", i, addr, err)
				continue
			}
			sets = append(sets, tr.Events)
		}
		return dosas.StitchTimeline(sets...)
	}
	evs := fetch(pfs.TraceParams{ReqID: id})
	if len(evs) == 0 {
		evs = fetch(pfs.TraceParams{TraceID: id})
	}
	if len(evs) == 0 {
		log.Fatalf("no events recorded for id %d on any storage node", id)
	}
	fmt.Print(dosas.FormatTimeline(evs))
}

// healthAll prints every node's health report and returns whether the
// whole cluster is ready.
func healthAll(fs *dosas.FS) bool {
	ready := true
	for _, r := range fs.Health() {
		status := "ready"
		if !r.Ready {
			status = "DEGRADED"
			ready = false
		}
		fmt.Printf("%-8s %-5s %-8s uptime=%s\n",
			r.Node, r.Role, status, time.Duration(r.UptimeNano).Round(time.Second))
		for _, c := range r.Checks {
			mark := "ok"
			if !c.OK {
				mark = "FAIL"
			}
			fmt.Printf("  %-4s %-12s %s\n", mark, c.Name, c.Detail)
		}
	}
	return ready
}

// alertsAll prints every node's SLO alert table and returns whether no
// rule is currently firing.
func alertsAll(fs *dosas.FS, asJSON bool) bool {
	alerts, err := fs.Alerts()
	if err != nil {
		log.Fatal(err)
	}
	firing := 0
	for _, a := range alerts {
		if a.State == "firing" {
			firing++
		}
	}
	if asJSON {
		out, err := json.MarshalIndent(alerts, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return firing == 0
	}
	fmt.Print(dosas.FormatAlerts(alerts))
	return firing == 0
}

// tenantsAll prints per-tenant resource attribution: the cluster-wide
// merged table by default, one table per storage node with -per-node,
// and the raw node reports as JSON with -json.
func tenantsAll(fs *dosas.FS, sortKey string, asJSON, perNode bool) {
	reports, err := fs.Tenants()
	if err != nil {
		log.Fatal(err)
	}
	if asJSON {
		out, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	if perNode {
		for _, r := range reports {
			fmt.Printf("%s (evicted=%d)\n", r.Node, r.Evicted)
			dosas.SortTenantUsage(r.Usage, sortKey)
			fmt.Print(dosas.FormatTenants(r.Usage))
		}
		return
	}
	merged := dosas.MergeTenantUsage(reports)
	if len(merged) == 0 {
		fmt.Println("no tenant usage recorded")
		return
	}
	dosas.SortTenantUsage(merged, sortKey)
	fmt.Print(dosas.FormatTenants(merged))
	var evicted uint64
	for _, r := range reports {
		evicted += r.Evicted
	}
	if evicted > 0 {
		fmt.Printf("(%d tenant(s) folded into %s across nodes)\n", evicted, dosas.TenantEvicted)
	}
}

// eventsLoop prints the cluster's merged event timeline once, or — with
// follow — keeps tailing each node from its sequence cursor.
func eventsLoop(fs *dosas.FS, min dosas.EventLevel, limit int, follow bool) {
	cursors := make(map[string]uint64)
	printPages := func(pages []dosas.EventsPage) {
		sets := make([][]dosas.Event, 0, len(pages))
		for _, p := range pages {
			sets = append(sets, p.Events)
			// Snapshot cursors are exclusive: feed back NextSeq-1 so
			// the next event logged (Seq == NextSeq) is not skipped.
			if p.NextSeq >= 1 {
				cursors[p.Node] = p.NextSeq - 1
			}
		}
		for _, ev := range dosas.MergeEvents(sets...) {
			fmt.Println(dosas.FormatEvent(ev))
		}
	}
	pages, err := fs.Events(nil, min, limit)
	if err != nil {
		log.Fatal(err)
	}
	printPages(pages)
	for follow {
		time.Sleep(time.Second)
		pages, err := fs.Events(cursors, min, 0)
		if err != nil {
			log.Fatal(err)
		}
		printPages(pages)
	}
}

// topLoop renders the cluster-wide telemetry view: one frame with -once,
// else refreshing in place every two seconds until interrupted.
func topLoop(fs *dosas.FS, window time.Duration, once bool) {
	for {
		frame := renderTop(fs, window)
		if !once {
			fmt.Print("\033[H\033[2J") // clear screen, cursor home
		}
		fmt.Print(frame)
		if once {
			return
		}
		time.Sleep(2 * time.Second)
	}
}

// renderTop formats one frame: per node, each telemetry series with its
// latest value, window maximum, and a sparkline of the window.
func renderTop(fs *dosas.FS, window time.Duration) string {
	byNode, err := fs.Series(window)
	var sb strings.Builder
	fmt.Fprintf(&sb, "dosas top — %d node(s), window %v\n", len(byNode), window)
	if err != nil {
		fmt.Fprintf(&sb, "  series fetch: %v\n", err)
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		fmt.Fprintf(&sb, "%s\n", node)
		for _, s := range byNode[node] {
			fmt.Fprintf(&sb, "  %-18s last=%10.2f max=%10.2f %s\n",
				s.Name, s.Last().Value, s.Max(), sparkline(s, 32))
		}
	}
	return sb.String()
}

// sparkline draws a series' points as a fixed-width bar strip scaled to
// the window maximum.
func sparkline(s dosas.Series, width int) string {
	if len(s.Points) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	pts := s.Points
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	max := s.Max()
	out := make([]rune, len(pts))
	for i, p := range pts {
		if max <= 0 {
			out[i] = bars[0]
			continue
		}
		idx := int(p.Value / max * float64(len(bars)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(bars) {
			idx = len(bars) - 1
		}
		out[i] = bars[idx]
	}
	return string(out)
}

// probeAll dumps every storage node's estimator snapshot.
func probeAll(meta string, dataAddrs []string) {
	pool := pfs.NewPool(transport.TCP{})
	defer pool.Close()
	if _, err := pool.Call(meta, &wire.Ping{Seq: 1}); err != nil {
		log.Printf("meta %s: unreachable: %v", meta, err)
	} else {
		fmt.Printf("meta %s: alive\n", meta)
	}
	for i, addr := range dataAddrs {
		resp, err := pool.Call(addr, &wire.ProbeReq{})
		if err != nil {
			log.Printf("data[%d] %s: unreachable: %v", i, addr, err)
			continue
		}
		p, ok := resp.(*wire.ProbeResp)
		if !ok {
			log.Printf("data[%d] %s: unexpected response", i, addr)
			continue
		}
		fmt.Printf("data[%d] %s: queue normal=%d active=%d, cores busy=%.1f/%d, queued=%d bytes\n",
			i, addr, p.QueueLen, p.ActiveQueueLen, p.BusyCores, p.TotalCores, p.BytesQueued)
	}
}
