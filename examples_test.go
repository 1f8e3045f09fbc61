package dosas_test

// Smoke test for the shipped examples: every example must build and run
// to completion. Keeps the documented programs from bit-rotting.

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs example binaries")
	}
	cases := []struct {
		dir     string
		timeout time.Duration
		expect  []string // substrings the output must contain
	}{
		{"./examples/quickstart", 60 * time.Second,
			[]string{"sum =", "raw bytes shipped over the network"}},
		{"./examples/imaging", 120 * time.Second,
			[]string{"matches the local reference exactly", "halo exchange"}},
		{"./examples/climate", 120 * time.Second,
			[]string{"whole-ensemble reductions shipped"}},
		{"./examples/textmine", 120 * time.Second,
			[]string{"all counts verified against ground truth"}},
		// examples/contention runs paced multi-second phases, so no test
		// runs it. Its scenario, paced sum8 against a shaped link on one
		// node under TS, AS and DOSAS, is TestSimulatorMatchesLiveSystem's,
		// and its 8-request storm is TestPacedBatchKeepsItsKernels's.
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", tc.dir)
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(tc.timeout):
				cmd.Process.Kill()
				t.Fatalf("%s timed out after %v", tc.dir, tc.timeout)
			}
			if err != nil {
				t.Fatalf("%s: %v\n%s", tc.dir, err, out)
			}
			for _, want := range tc.expect {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q:\n%s", tc.dir, want, out)
				}
			}
		})
	}
}
