//go:build unix

package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"securepki/internal/obs"
	"securepki/internal/snapshot"
)

// TestMain lets the test binary stand in for the certquery command: with
// CERTQUERY_TEST_MAIN=1 in its environment it runs main on its own
// arguments, so a test can drive the real process — flags, stdout, signals
// — without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("CERTQUERY_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterAddress: a script that reads certquery's bound
// address and signals it at once must get the graceful stop, including the
// -metrics-out document, never SIGTERM's default action. With the handler
// registered only after serving began, about two launches in three died
// here, so ten launches reproduce that order all but surely; with the
// handler registered before the address exists, none can.
func TestSIGTERMRightAfterAddress(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.v3")
	f, err := os.Create(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteV3(f, testCorpus(t, 20, 2, 10), snapshot.Options{ASOf: testASOf}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		metrics := filepath.Join(dir, "metrics.json")
		os.Remove(metrics)
		cmd := exec.Command(os.Args[0], "-corpus", corpus, "-metrics-out", metrics)
		// Under -race each exit would otherwise sleep a second for late reports.
		cmd.Env = append(os.Environ(), "CERTQUERY_TEST_MAIN=1", "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// A hung child must fail the test, not stall it.
		watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
		if _, err := bufio.NewReader(stdout).ReadString('\n'); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("launch %d: reading the bound address: %v\n%s", i, err, stderr.Bytes())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		watchdog.Stop()
		if err != nil {
			t.Fatalf("launch %d: SIGTERM right after the address: %v, want a clean exit\n%s", i, err, stderr.Bytes())
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatalf("launch %d: -metrics-out not written: %v", i, err)
		}
		if err := obs.ValidateMetrics(data); err != nil {
			t.Fatalf("launch %d: metrics document: %v", i, err)
		}
	}
}
