// Package wire implements the collection path of the measurement pipeline as
// a real network protocol: a minimal TLS-like handshake in which a server
// presents its certificate chain, plus a concurrent ZMap/zgrab-style scanner
// that grabs chains from many endpoints in parallel.
//
// The corpus-scale experiments run against the in-memory simulator for
// speed; this package exists so the pipeline is demonstrably end-to-end — a
// population can be served on real sockets (cmd/servesim) and harvested over
// TCP (cmd/certscan), producing the same scanstore observations.
//
// Wire format (all integers big-endian):
//
//	ClientHello:  "SPKI" | u8 version
//	ServerHello:  "SPKI" | u8 version | u8 certCount | certCount × (u32 len | DER)
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Protocol limits; a chain larger than these is malformed by definition.
const (
	Version      = 1
	MaxChainLen  = 8
	MaxCertBytes = 1 << 16
)

// DefaultAttemptTimeout bounds a single handshake when the caller supplies no
// tighter budget — both the server's per-connection deadline and the client's
// per-attempt deadline derive from it. It used to appear as a magic 10s in
// two places; Options.AttemptTimeout overrides it on the client side.
const DefaultAttemptTimeout = 10 * time.Second

var magic = [4]byte{'S', 'P', 'K', 'I'}

// ErrProtocol reports a malformed or incompatible peer.
var ErrProtocol = errors.New("wire: protocol error")

// ChainProvider supplies the DER chain (leaf first) a server presents. It is
// called once per handshake, so rotating certificates (reissuing devices)
// need no server restart.
type ChainProvider func() [][]byte

// StaticChain adapts a fixed chain into a ChainProvider.
func StaticChain(chain [][]byte) ChainProvider {
	return func() [][]byte { return chain }
}

// Server answers handshakes on a listener.
type Server struct {
	ln       net.Listener
	provider ChainProvider

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer starts serving on addr (e.g. "127.0.0.1:0"). Close shuts it down.
func NewServer(addr string, provider ChainProvider) (*Server, error) {
	if provider == nil {
		return nil, fmt.Errorf("wire: nil chain provider")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return Serve(ln, provider)
}

// Serve answers handshakes on an existing listener, taking ownership of it.
// This is the doorway for wrapped listeners — cmd/servesim -chaos hands in a
// faultnet-wrapped listener so fault injection happens below the protocol.
func Serve(ln net.Listener, provider ChainProvider) (*Server, error) {
	if provider == nil {
		ln.Close()
		return nil, fmt.Errorf("wire: nil chain provider")
	}
	s := &Server{ln: ln, provider: provider, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//lint:ignore detmap teardown side effect only; close order is irrelevant and nothing is emitted
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(DefaultAttemptTimeout))
	var hello [5]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	if [4]byte(hello[:4]) != magic || hello[4] != Version {
		return
	}
	chain := s.provider()
	if len(chain) == 0 || len(chain) > MaxChainLen {
		return
	}
	buf := make([]byte, 0, 6)
	buf = append(buf, magic[:]...)
	buf = append(buf, Version, byte(len(chain)))
	if _, err := conn.Write(buf); err != nil {
		return
	}
	var lenBuf [4]byte
	for _, der := range chain {
		if len(der) > MaxCertBytes {
			return
		}
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(der)))
		if _, err := conn.Write(lenBuf[:]); err != nil {
			return
		}
		if _, err := conn.Write(der); err != nil {
			return
		}
	}
}

// FetchChain performs one handshake against addr and returns the presented
// DER chain (leaf first). It is FetchChainOpts with the default options: one
// attempt, DefaultAttemptTimeout.
func FetchChain(ctx context.Context, addr string) ([][]byte, error) {
	chain, _, err := FetchChainOpts(ctx, addr, Options{})
	return chain, err
}

// fetchAttempt performs exactly one handshake. The connection deadline is the
// earlier of the caller context's deadline and now+attemptTimeout, so a short
// per-attempt budget is honoured even under a long sweep context (and vice
// versa) — previously the context deadline, when present, silently replaced
// the per-attempt budget.
func fetchAttempt(ctx context.Context, addr string, attemptTimeout time.Duration, dial DialFunc) ([][]byte, error) {
	deadline := time.Now().Add(attemptTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	conn, err := dial(dctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)

	hello := append(append([]byte{}, magic[:]...), Version)
	if _, err := conn.Write(hello); err != nil {
		return nil, fmt.Errorf("wire: send hello: %w", err)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, fmt.Errorf("wire: read hello: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %x", ErrProtocol, hdr[:4])
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrProtocol, hdr[4])
	}
	count := int(hdr[5])
	if count == 0 || count > MaxChainLen {
		return nil, fmt.Errorf("%w: chain length %d", ErrProtocol, count)
	}
	chain := make([][]byte, 0, count)
	var lenBuf [4]byte
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("wire: read cert %d length: %w", i, err)
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > MaxCertBytes {
			return nil, fmt.Errorf("%w: cert %d length %d", ErrProtocol, i, n)
		}
		der := make([]byte, n)
		if _, err := io.ReadFull(conn, der); err != nil {
			return nil, fmt.Errorf("wire: read cert %d: %w", i, err)
		}
		chain = append(chain, der)
	}
	return chain, nil
}

// Result is one scanned endpoint's outcome. Attempts counts handshakes made
// (1 for a clean grab; 1+retries when the endpoint misbehaved).
type Result struct {
	Addr     string
	Chain    [][]byte
	Attempts int
	// FailReasons records the Reason of every failed attempt in order; on a
	// recovered endpoint these are the retried faults, on a failed one the
	// last entry is the terminal reason.
	FailReasons []string
	Err         error
}

// Scan grabs chains from every target concurrently with a bounded worker
// pool, like ZMap+zgrab. Results preserve target order. perTargetTimeout
// bounds each handshake; the context cancels the whole sweep. Scan never
// retries; ScanRetry is the resilient form.
func Scan(ctx context.Context, targets []string, workers int, perTargetTimeout time.Duration) []Result {
	results, _ := ScanRetry(ctx, targets, workers, Options{AttemptTimeout: perTargetTimeout})
	return results
}

// ScanRetry is Scan with a full resilience policy: per-attempt timeouts,
// bounded retries with exponential backoff and deterministic seeded jitter.
// Each target's jitter stream is derived from (opts.Seed, target index), so a
// sweep's backoff schedule is reproducible regardless of which ports the
// targets happen to live on. The returned SweepStats aggregates the
// per-result retry/failure counters in target order (deterministically).
func ScanRetry(ctx context.Context, targets []string, workers int, opts Options) ([]Result, SweepStats) {
	opts = opts.withDefaults()
	if workers <= 0 {
		workers = 16
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	results := make([]Result, len(targets))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				topts := opts
				topts.Seed = deriveSeed(opts.Seed, uint64(i))
				chain, fs, err := FetchChainOpts(ctx, targets[i], topts)
				results[i] = Result{
					Addr:        targets[i],
					Chain:       chain,
					Attempts:    fs.Attempts,
					FailReasons: fs.FailReasons,
					Err:         err,
				}
			}
		}()
	}
feed:
	for i := range targets {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < len(targets); j++ {
				results[j] = Result{Addr: targets[j], Attempts: 0, Err: ctx.Err()}
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// One serial fold in target order feeds both the caller's registry and
	// the returned SweepStats, so the -json summary and the metrics document
	// can never disagree.
	return results, FoldSweep(opts.Obs, results)
}
