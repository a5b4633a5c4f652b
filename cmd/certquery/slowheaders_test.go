//go:build unix

package main

import (
	"bufio"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"securepki/cmd/telemetry"
	"securepki/internal/snapshot"
)

// TestSlowHeadersAreCut runs the real certquery process with -debug-addr
// and sends each of its servers a request line followed by one header byte
// every 200ms. Both must close the connection within
// telemetry.ReadHeaderTimeout; without the bound each such client holds a
// connection and a goroutine for as long as it keeps trickling.
func TestSlowHeadersAreCut(t *testing.T) {
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

	cmd := exec.Command(os.Args[0], "-corpus", corpus, "-debug-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "CERTQUERY_TEST_MAIN=1", "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer cmd.Process.Kill()

	// The debug server announces itself on stderr before the query server's
	// address goes to stdout.
	debugAddr := ""
	announce := regexp.MustCompile(`telemetry on http://(\S+)/statusz`)
	errLines := bufio.NewScanner(stderr)
	for debugAddr == "" && errLines.Scan() {
		if m := announce.FindStringSubmatch(errLines.Text()); m != nil {
			debugAddr = m[1]
		}
	}
	go io.Copy(io.Discard, stderr)
	queryAddr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil || debugAddr == "" {
		t.Fatalf("query address %q (err %v), debug address %q", queryAddr, err, debugAddr)
	}

	var wg sync.WaitGroup
	for name, addr := range map[string]string{"query": queryAddr[:len(queryAddr)-1], "debug": debugAddr} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			limit := telemetry.ReadHeaderTimeout + 3*time.Second
			if open := trickleHeaders(t, addr, limit); open {
				t.Errorf("%s server still holds a header-trickling client after %v", name, limit)
			}
		}()
	}
	wg.Wait()
}

// trickleHeaders sends a request line, then one header byte every 200ms,
// until the server closes the connection or limit passes. It reports
// whether the connection was still open at the limit.
func trickleHeaders(t *testing.T, addr string, limit time.Duration) bool {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return false
	}
	defer conn.Close()
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn)
		close(closed)
	}()
	io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: certquery\r\nX-Slow: ")
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(limit)
	for {
		select {
		case <-closed:
			return false
		case <-deadline:
			return true
		case <-tick.C:
			conn.Write([]byte("a"))
		}
	}
}
