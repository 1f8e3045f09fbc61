package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// Env records what two BENCH.json files must share before their numbers
// can be compared.
type Env struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	DataDirFS     string  `json:"data_dir_fs"`
	GitCommit     string  `json:"git_commit"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_s"`
	SliceSeconds  float64 `json:"slice_s"`
	WarmupSeconds float64 `json:"warmup_s"`
	TracedSeconds float64 `json:"traced_s"`
	Slices        int     `json:"slices"`
	Setups        int     `json:"setups"`
	FlushPolicy   string  `json:"store_flush_policy"`
}

func readEnv(r *runner) Env {
	e := Env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", DataDirFS: fsType(r.scratch), GitCommit: "unknown", Seed: r.seed,
		WindowSeconds: r.window.Seconds(), SliceSeconds: r.window.Seconds() / numSlices,
		WarmupSeconds: warmupFor(r.window).Seconds(), TracedSeconds: r.traced().Seconds(),
		Slices: numSlices, Setups: r.setups,
		FlushPolicy: "StoreSync off: no fsync, the page cache absorbs writes",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository simply has no commit.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext2/ext3/ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func printEnv(w io.Writer, e Env) {
	fmt.Fprintf(w, "environment: nproc=%d GOMAXPROCS=%d %s kernel=%s data-dir-fs=%s commit=%s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.DataDirFS, e.GitCommit)
	fmt.Fprintf(w, "run shape: seed=%d, %d set-ups, warm-up %.2fs, window %.2fs = %d slices of %.2fs, traced pass %.2fs; %s\n",
		e.Seed, e.Setups, e.WarmupSeconds, e.WindowSeconds, e.Slices, e.SliceSeconds, e.TracedSeconds, e.FlushPolicy)
}
