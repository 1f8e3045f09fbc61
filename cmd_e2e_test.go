package dosas_test

// End-to-end smoke test of the shipped binaries: builds dosas-meta,
// dosas-server and dosasctl, boots a real multi-process cluster over TCP
// loopback, and drives it through the CLI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n loopback TCP addresses and releases them for child
// processes. It holds every listener until all n are picked, so no two of
// the addresses share a port.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// lockedBuffer is a bytes.Buffer that a child's output copier writes while
// the test may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is a child process a test started, with its combined output.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	out    lockedBuffer
	exited chan struct{} // closed once the process has exited
}

// startDaemon starts the binary name from bin with args. It is killed when
// the test ends.
func startDaemon(t *testing.T, bin, name string, args ...string) *daemon {
	t.Helper()
	d := &daemon{name: name, cmd: exec.Command(filepath.Join(bin, name), args...), exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck // the exit status is in ProcessState
		close(d.exited)
	}()
	t.Cleanup(d.kill)
	return d
}

// kill stops the daemon and waits until it has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-d.exited
}

// waitDialable polls until d accepts connections at addr. A daemon that
// exits first fails the test at once, with its output.
func waitDialable(t *testing.T, d *daemon, addr string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		select {
		case <-d.exited:
			t.Fatalf("%s exited (%v) before %s accepted connections:\n%s", d.name, d.cmd.ProcessState, addr, d.out.String())
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatalf("%s at %s never came up:\n%s", d.name, addr, d.out.String())
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/dosas-meta", "./cmd/dosas-server", "./cmd/dosasctl")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	addrs := freeAddrs(t, 4)
	metaAddr, dataAddr0, dataAddr1, pprofAddr := addrs[0], addrs[1], addrs[2], addrs[3]
	dataList := dataAddr0 + "," + dataAddr1

	meta := startDaemon(t, bin, "dosas-meta", "-addr", metaAddr, "-data-servers", "2",
		"-journal", filepath.Join(t.TempDir(), "meta.wal"))
	data0 := startDaemon(t, bin, "dosas-server", "-addr", dataAddr0, "-store", t.TempDir(),
		"-pprof-addr", pprofAddr)
	data1 := startDaemon(t, bin, "dosas-server", "-addr", dataAddr1, "-store", t.TempDir())
	waitDialable(t, meta, metaAddr)
	waitDialable(t, data0, dataAddr0)
	waitDialable(t, data1, dataAddr1)

	ctl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-meta", metaAddr, "-data", dataList}, args...)
		out, err := exec.Command(filepath.Join(bin, "dosasctl"), full...).CombinedOutput()
		if err != nil {
			t.Fatalf("dosasctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// put / stat / ls
	local := filepath.Join(t.TempDir(), "payload.bin")
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := os.WriteFile(local, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	out := ctl("put", local, "e2e/payload.bin")
	if !strings.Contains(out, "stored 300000 bytes") {
		t.Fatalf("put output: %s", out)
	}
	out = ctl("stat", "e2e/payload.bin")
	if !strings.Contains(out, "size:    300000") || !strings.Contains(out, "width:   2") {
		t.Fatalf("stat output: %s", out)
	}
	out = ctl("ls", "e2e/")
	if strings.TrimSpace(out) != "e2e/payload.bin" {
		t.Fatalf("ls output: %q", out)
	}

	// readex: the sum must match, computed where the cluster chooses.
	var want uint64
	for _, b := range payload {
		want += uint64(b)
	}
	out = ctl("readex", "e2e/payload.bin", "sum8")
	if !strings.Contains(out, fmt.Sprintf("sum = %d", want)) {
		t.Fatalf("readex output lacks sum %d: %s", want, out)
	}

	// stats aggregates every node's metrics; the readex shows up as an
	// active arrival on a storage node.
	out = ctl("stats")
	if !strings.Contains(out, "meta (meta)") || !strings.Contains(out, "active.arrivals") {
		t.Fatalf("stats output: %s", out)
	}
	out = ctl("stats", "-json")
	if !strings.Contains(out, `"role": "data"`) || !strings.Contains(out, `"counters"`) {
		t.Fatalf("stats -json output: %s", out)
	}

	// trace stitches the readex's storage-side timeline (each dosasctl run
	// is a fresh client, so its first active request has id 1). The output
	// must carry the node identity and the scheduling decision.
	out = ctl("trace", "1")
	if !strings.Contains(out, "req=1") {
		t.Fatalf("trace output lacks request events: %s", out)
	}
	if !strings.Contains(out, "data@"+dataAddr0) && !strings.Contains(out, "data@"+dataAddr1) {
		t.Fatalf("trace output lacks node identity: %s", out)
	}
	if !strings.Contains(out, "arrive") ||
		(!strings.Contains(out, "admit") && !strings.Contains(out, "reject")) {
		t.Fatalf("trace output lacks scheduling decision: %s", out)
	}

	// explain renders the storage nodes' decision rationale for that same
	// readex: one decision line with the solver's verdict and margin.
	out = ctl("explain")
	if !strings.Contains(out, "decision ") || !strings.Contains(out, "solver=") ||
		!strings.Contains(out, "sum8") || !strings.Contains(out, "margin=") {
		t.Fatalf("explain output: %s", out)
	}
	if !strings.Contains(out, "RUN-ACTIVE") && !strings.Contains(out, "BOUNCE") {
		t.Fatalf("explain output lacks a disposition: %s", out)
	}

	// audit dumps the same log as JSON; whatif -log replays that dump
	// offline under every policy, so the full record→export→replay loop
	// runs over the wire and through a file.
	auditFile := filepath.Join(t.TempDir(), "decisions.json")
	if err := os.WriteFile(auditFile, []byte(ctl("audit")), 0o644); err != nil {
		t.Fatal(err)
	}
	out = ctl("whatif", "-log", auditFile)
	for _, policy := range []string{"recorded", "exhaustive", "maxgain", "all-active", "all-normal"} {
		if !strings.Contains(out, policy) {
			t.Fatalf("whatif output lacks policy %s: %s", policy, out)
		}
	}
	if !strings.Contains(out, "regret=") || !strings.Contains(out, "oracle=") {
		t.Fatalf("whatif output lacks scoring: %s", out)
	}

	// get round-trips the bytes.
	fetched := filepath.Join(t.TempDir(), "fetched.bin")
	ctl("get", "e2e/payload.bin", fetched)
	got, err := os.ReadFile(fetched)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("fetched %d bytes", len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("fetched byte %d differs", i)
		}
	}

	// probe reaches every server.
	out = ctl("probe")
	if !strings.Contains(out, "meta "+metaAddr+": alive") ||
		!strings.Contains(out, "data[0]") || !strings.Contains(out, "data[1]") {
		t.Fatalf("probe output: %s", out)
	}

	// health sweeps every node's readiness checks; an idle cluster is
	// fully ready.
	out = ctl("health")
	if !strings.Contains(out, "meta") || !strings.Contains(out, "ready") ||
		!strings.Contains(out, "data@"+dataAddr0) {
		t.Fatalf("health output: %s", out)
	}
	if strings.Contains(out, "DEGRADED") {
		t.Fatalf("idle cluster reported degraded: %s", out)
	}

	// alerts on an idle cluster: every node's built-in rules are listed,
	// none firing, and the command exits zero.
	out = ctl("alerts")
	if !strings.Contains(out, "bounce-budget-burn") || !strings.Contains(out, "queue-saturation") {
		t.Fatalf("alerts output lacks built-in rules: %s", out)
	}
	if strings.Contains(out, "FIRING") {
		t.Fatalf("idle cluster has firing alerts: %s", out)
	}

	// events tails the merged structured logs: the storage nodes logged
	// their startup, the meta its journal replay.
	out = ctl("events", "-n", "200")
	if !strings.Contains(out, "serving stripes") || !strings.Contains(out, "serving namespace") {
		t.Fatalf("events output lacks startup markers: %s", out)
	}
	if !strings.Contains(out, "data@"+dataAddr0) || !strings.Contains(out, "meta") {
		t.Fatalf("events output lacks node identities: %s", out)
	}

	// The debug endpoint serves the node's OpenMetrics exposition: typed,
	// node-labeled families with the OpenMetrics terminator. The telemetry
	// family lists only series that hold a sample, so the scrape waits for
	// the sampler's first tick (100 ms after start by default); the CLI
	// steps above can finish sooner than that.
	waitDialable(t, data0, pprofAddr)
	var om string
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get("http://" + pprofAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
			t.Fatalf("metrics content-type = %q", ct)
		}
		om = string(body)
		if strings.Contains(om, "# TYPE dosas_telemetry gauge") || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE dosas_telemetry gauge",
		"# TYPE dosas_slo_alert gauge",
		`node="data@` + dataAddr0 + `"`,
		`role="data"`,
	} {
		if !strings.Contains(om, want) {
			t.Fatalf("/metrics missing %q:\n%.2000s", want, om)
		}
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("/metrics not terminated with # EOF: %q", om[len(om)-40:])
	}

	// top -once prints a single telemetry frame with per-node series.
	out = ctl("top", "-once", "2s")
	if !strings.Contains(out, "dosas top") || !strings.Contains(out, "queue.depth") ||
		!strings.Contains(out, "meta.ops_per_sec") {
		t.Fatalf("top output: %s", out)
	}

	// A readex with the flight recorder armed at an impossible threshold
	// captures exactly one bundle, which the slow command replays.
	slowDir := filepath.Join(t.TempDir(), "slow")
	slowArgs := []string{"-meta", metaAddr, "-data", dataList,
		"-slow-threshold", "1ns", "-slow-dir", slowDir,
		"readex", "e2e/payload.bin", "sum8"}
	if out, err := exec.Command(filepath.Join(bin, "dosasctl"), slowArgs...).CombinedOutput(); err != nil {
		t.Fatalf("slow readex: %v\n%s", err, out)
	}
	out = ctl("slow", slowDir)
	if !strings.Contains(out, "op=sum8") || !strings.Contains(out, "timeline:") ||
		!strings.Contains(out, "reason=absolute") {
		t.Fatalf("slow output: %s", out)
	}
	if n := strings.Count(out, "trace "); n != 1 {
		t.Fatalf("slow printed %d bundles, want 1: %s", n, out)
	}

	// fsck on a replicated file.
	ctl("put", local, "e2e/replicated.bin", "2", "2")
	out = ctl("fsck", "e2e/replicated.bin", "deep")
	if !strings.Contains(out, "OK") {
		t.Fatalf("fsck output: %s", out)
	}
	out = ctl("repair", "e2e/replicated.bin")
	if !strings.Contains(out, "OK") {
		t.Fatalf("repair output: %s", out)
	}

	// rm removes and ls confirms.
	ctl("rm", "e2e/payload.bin")
	if out := ctl("ls", "e2e/"); !strings.Contains(out, "e2e/replicated.bin") ||
		strings.Contains(out, "payload") {
		t.Fatalf("ls after rm: %q", out)
	}
}

// TestArchiveQueryE2E drives the durable telemetry archive through the
// shipped binaries: a storage node started with -archive-dir persists
// its telemetry, is killed mid-load and restarted, and dosasctl query
// then returns one continuous series spanning the crash — pre-crash
// samples intact. dosasctl report stitches the same window into an
// incident bundle.
func TestArchiveQueryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/dosas-meta", "./cmd/dosas-server", "./cmd/dosasctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	addrs := freeAddrs(t, 2)
	metaAddr, dataAddr := addrs[0], addrs[1]
	archiveDir := t.TempDir()
	storeDir := t.TempDir()

	serverArgs := []string{"-addr", dataAddr, "-store", storeDir,
		"-archive-dir", archiveDir, "-telemetry-tick", "10ms"}
	meta := startDaemon(t, bin, "dosas-meta", "-addr", metaAddr, "-data-servers", "1",
		"-journal", filepath.Join(t.TempDir(), "meta.wal"))
	srv := startDaemon(t, bin, "dosas-server", serverArgs...)
	waitDialable(t, meta, metaAddr)
	waitDialable(t, srv, dataAddr)

	ctl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-meta", metaAddr, "-data", dataAddr}, args...)
		out, err := exec.Command(filepath.Join(bin, "dosasctl"), full...).CombinedOutput()
		if err != nil {
			t.Fatalf("dosasctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Load the node so queue.depth has something to archive, then let a
	// few ticks land on disk.
	local := filepath.Join(t.TempDir(), "payload.bin")
	if err := os.WriteFile(local, make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	ctl("put", local, "arch/payload.bin")
	ctl("readex", "arch/payload.bin", "sum8")
	time.Sleep(500 * time.Millisecond)

	// Crash the storage node mid-run and bring it back on the same
	// archive and store directories.
	srv.kill()
	restartNano := time.Now().UnixNano()
	waitDialable(t, startDaemon(t, bin, "dosas-server", serverArgs...), dataAddr)
	time.Sleep(500 * time.Millisecond)

	out := ctl("query", "queue.depth", "-since", "1h", "-json")
	var res struct {
		Nodes []struct {
			Node   string `json:"node"`
			Points []struct {
				T int64   `json:"t"`
				V float64 `json:"v"`
			} `json:"points"`
			Earliest int64 `json:"earliest"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("query -json: %v\n%s", err, out)
	}
	var before, after int
	for _, n := range res.Nodes {
		if !strings.HasPrefix(n.Node, "data@") {
			continue
		}
		for i, p := range n.Points {
			if i > 0 && p.T < n.Points[i-1].T {
				t.Fatalf("series not continuous at point %d", i)
			}
			if p.T < restartNano {
				before++
			} else {
				after++
			}
		}
	}
	if before == 0 {
		t.Fatalf("no pre-crash samples survived the restart:\n%s", out)
	}
	if after == 0 {
		t.Fatalf("no post-restart samples archived:\n%s", out)
	}

	// The human rendering carries the node table and sparkline line.
	out = ctl("query", "queue.depth", "-since", "1h")
	if !strings.Contains(out, "SERIES queue.depth") || !strings.Contains(out, "data@"+dataAddr) {
		t.Fatalf("query output: %s", out)
	}

	// report stitches the window into an incident bundle with the
	// archived telemetry section.
	out = ctl("report", "-since", "1h", "-series", "queue.depth")
	if !strings.Contains(out, "INCIDENT REPORT") ||
		!strings.Contains(out, "TELEMETRY queue.depth") ||
		!strings.Contains(out, "data@"+dataAddr) {
		t.Fatalf("report output: %s", out)
	}
}

// TestCtlExplainGolden pins dosasctl explain's offline rendering to the
// committed golden transcript: the CLI must print exactly what
// audit.FormatRecords produces for the golden log, byte for byte.
// Regenerate both fixtures with `go test ./internal/audit -run Golden
// -update` after an intentional format change.
func TestCtlExplainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs binaries")
	}
	bin := filepath.Join(t.TempDir(), "dosasctl")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dosasctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	got, err := exec.Command(bin, "explain",
		"-log", filepath.Join("internal", "audit", "testdata", "golden_log.json")).Output()
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("internal", "audit", "testdata", "golden_explain.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("explain output diverged from golden_explain.txt:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
