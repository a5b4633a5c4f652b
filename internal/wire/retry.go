// Retry layer: per-attempt timeouts, bounded retries, exponential backoff
// with deterministic seeded jitter, and the error taxonomy the scanner's
// resilience story is built on (DESIGN.md "Fault model & retry semantics").
//
// Everything timing-related is injectable — the backoff sleeper and the
// dialer are Options fields — and every random draw flows from a seeded
// SplitMix64 stream, so a retry schedule is a pure function of
// (seed, endpoint, attempt) and tests replay it exactly.

package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"time"

	"securepki/internal/obs"
	"securepki/internal/stats"
)

// DialFunc opens a connection; net.Dialer.DialContext is the default. Tests
// and the fault-injection layer (internal/faultnet) substitute their own.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// SleepFunc pauses between retry attempts, returning early with the context's
// error if it is cancelled first. Tests inject a recorder; nil means a real
// timer.
type SleepFunc func(ctx context.Context, d time.Duration) error

// Options configures the client side of the protocol: one attempt's budget
// and the retry policy around it. The zero value means one attempt with
// DefaultAttemptTimeout — exactly the old FetchChain behaviour.
type Options struct {
	// AttemptTimeout bounds each individual handshake (dial + read). The
	// effective deadline is the earlier of this and the caller context's
	// deadline. 0 means DefaultAttemptTimeout.
	AttemptTimeout time.Duration
	// Retries is how many additional attempts follow a retryable failure.
	Retries int
	// BackoffBase is the nominal delay before the first retry; each further
	// retry doubles it, capped at BackoffMax. 0 means 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth. 0 means 2s.
	BackoffMax time.Duration
	// Seed feeds the jitter stream. The same seed always produces the same
	// delays; ScanRetry derives a per-target stream from (Seed, index).
	Seed uint64
	// Sleep implements the backoff pause; nil uses a real timer.
	Sleep SleepFunc
	// Dial opens connections; nil uses net.Dialer.
	Dial DialFunc
	// Obs receives the client's live metrics: per-attempt outcome counters
	// keyed by Reason (wire.attempt.*), the jittered backoff-delay
	// histogram, and — folded once per ScanRetry barrier — the sweep.*
	// counters SweepStats is sourced from. nil disables instrumentation.
	// Every metric recorded here is deterministic for a deterministic fault
	// schedule: outcome per (target, attempt) is a pure function of the
	// schedule, and counters sum the same at any worker count.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = DefaultAttemptTimeout
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Sleep == nil {
		o.Sleep = sleepTimer
	}
	return o
}

func sleepTimer(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// deriveSeed decorrelates a per-endpoint stream from the sweep seed with the
// SplitMix64 constant, matching stats.RNG's stream-splitting idiom.
func deriveSeed(seed, key uint64) uint64 {
	return seed ^ (key+1)*0x9e3779b97f4a7c15
}

// BackoffDelay returns the jittered delay before retry number attempt
// (0-based): min(BackoffMax, BackoffBase<<attempt) scaled into [50%, 100%) by
// the next draw of rng. Deterministic given the stream — the formula the
// DESIGN.md determinism argument is about.
func BackoffDelay(opts Options, attempt int, rng *stats.RNG) time.Duration {
	opts = opts.withDefaults()
	d := opts.BackoffBase
	for i := 0; i < attempt && d < opts.BackoffMax; i++ {
		d *= 2
	}
	if d > opts.BackoffMax {
		d = opts.BackoffMax
	}
	return time.Duration((0.5 + 0.5*rng.Float64()) * float64(d))
}

// ErrMalformedCert is the terminal classification for an endpoint whose
// handshake succeeded but whose certificate bytes do not parse — retrying
// cannot help, the device genuinely serves garbage. cmd/certscan wraps
// x509lite parse failures in it so the taxonomy lives in one place.
var ErrMalformedCert = errors.New("wire: malformed certificate")

// ErrClass is the retry-relevant classification of a fetch error.
type ErrClass int

const (
	// ClassNone means no error.
	ClassNone ErrClass = iota
	// ClassRetryable faults are transient in the scanner's fault model:
	// refused/reset connections, timeouts, truncation, and frame-level
	// protocol corruption (a hostile or lossy path, not a hostile endpoint).
	ClassRetryable
	// ClassTerminal faults cannot be cured by another attempt: the caller's
	// budget is exhausted, or the endpoint's certificate is malformed.
	ClassTerminal
)

// Classify maps a fetch error to its retry class. Attempt-level deadline
// errors are retryable; the retry loop separately stops when the parent
// context itself is done (that is the total budget, not an attempt fault).
func Classify(err error) ErrClass {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, ErrMalformedCert):
		return ClassTerminal
	case errors.Is(err, context.Canceled):
		return ClassTerminal
	default:
		return ClassRetryable
	}
}

// Reason buckets a fetch error for the sweep counters: "refused", "timeout",
// "reset", "protocol", "malformed-cert", "canceled" or "other".
func Reason(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrMalformedCert):
		return "malformed-cert"
	case errors.Is(err, ErrProtocol):
		return "protocol"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "refused"
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF):
		return "reset"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "other"
}

// FetchStats reports how one endpoint's fetch went.
type FetchStats struct {
	// Attempts is the number of handshakes performed (≥ 1).
	Attempts int
	// FailReasons holds the Reason of each failed attempt, in order. Its
	// length equals the number of failed attempts; on success it lists the
	// faults that were retried through.
	FailReasons []string
}

// FetchChainOpts performs a handshake against addr with retries per opts and
// returns the presented DER chain (leaf first). Retryable failures back off
// exponentially with seeded jitter; terminal failures and an exhausted parent
// context return immediately.
// backoffDelayBoundsMS buckets the jittered retry delays; the envelope
// defaults cap at 2s, so the top finite bucket is 5s.
var backoffDelayBoundsMS = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

func FetchChainOpts(ctx context.Context, addr string, opts Options) ([][]byte, FetchStats, error) {
	opts = opts.withDefaults()
	jitter := stats.NewRNG(opts.Seed)
	var fs FetchStats
	for attempt := 0; ; attempt++ {
		chain, err := fetchAttempt(ctx, addr, opts.AttemptTimeout, opts.Dial)
		fs.Attempts++
		opts.Obs.Counter("wire.attempts").Inc()
		if err == nil {
			opts.Obs.Counter("wire.attempt.ok").Inc()
			return chain, fs, nil
		}
		opts.Obs.Counter("wire.attempt.fail." + Reason(err)).Inc()
		fs.FailReasons = append(fs.FailReasons, Reason(err))
		if attempt >= opts.Retries || Classify(err) != ClassRetryable || ctx.Err() != nil {
			return nil, fs, err
		}
		delay := BackoffDelay(opts, attempt, jitter)
		opts.Obs.Counter("wire.retries").Inc()
		opts.Obs.Histogram("wire.backoff.delay_ms", backoffDelayBoundsMS).Observe(delay.Milliseconds())
		if serr := opts.Sleep(ctx, delay); serr != nil {
			return nil, fs, err // budget exhausted mid-backoff; report the fetch error
		}
	}
}

// SweepStats aggregates one sweep's retry and failure counters. FoldSweep
// builds it serially from the results in target order, so it is identical
// at any worker count.
type SweepStats struct {
	Targets  int
	OK       int
	Failed   int
	Attempts int
	Retries  int
	// Reasons counts "retry:<reason>" for every retried fault and
	// "fail:<reason>" for every endpoint that stayed failed.
	Reasons *stats.Counter
}

// sweepAttemptsBounds buckets attempts-per-target; the retry knob rarely
// exceeds single digits.
var sweepAttemptsBounds = []int64{1, 2, 3, 4, 6, 8, 12, 16}

// FoldSweep folds one sweep's results into its SweepStats, serially in
// target order, and publishes them into reg under the sweep.* namespace
// beside the sweep.attempts_per_target histogram. The -json summary and
// the -metrics-out document both draw on this one fold, so the two can
// never drift apart. sweep.targets and the histogram are registered for
// every sweep; each other counter only once the sweep counts something in
// it (sweep.attempts once there is a target).
func FoldSweep(reg *obs.Registry, results []Result) SweepStats {
	st := SweepStats{Targets: len(results), Reasons: stats.NewCounter()}
	for _, r := range results {
		st.Attempts += r.Attempts
		if r.Attempts > 1 {
			st.Retries += r.Attempts - 1
		}
		reasons := r.FailReasons
		if r.Err == nil {
			st.OK++
		} else {
			st.Failed++
			if len(reasons) > 0 {
				st.Reasons.Inc("fail:" + reasons[len(reasons)-1])
				reasons = reasons[:len(reasons)-1]
			} else {
				// Cancelled before the first attempt (Attempts == 0).
				st.Reasons.Inc("fail:" + Reason(r.Err))
			}
		}
		for _, reason := range reasons {
			st.Reasons.Inc("retry:" + reason)
		}
	}
	reg.Counter("sweep.targets").Add(int64(st.Targets))
	attempts := reg.Histogram("sweep.attempts_per_target", sweepAttemptsBounds)
	for _, r := range results {
		attempts.Observe(int64(r.Attempts))
	}
	if st.Targets > 0 {
		reg.Counter("sweep.attempts").Add(int64(st.Attempts))
	}
	if st.Retries > 0 {
		reg.Counter("sweep.retries").Add(int64(st.Retries))
	}
	if st.OK > 0 {
		reg.Counter("sweep.ok").Add(int64(st.OK))
	}
	if st.Failed > 0 {
		reg.Counter("sweep.failed").Add(int64(st.Failed))
	}
	for key, n := range st.Reasons.Map() {
		kind, reason, _ := strings.Cut(key, ":")
		reg.Counter("sweep." + kind + "." + reason).Add(int64(n))
	}
	return st
}

// IsRetryStorm flags a sweep whose retry volume reached its target count —
// on average every endpoint needed a second attempt, the signature of a
// network-wide fault episode rather than scattered flaky hosts. The event
// journal emits a "retry.storm" event for such sweeps so an operator tailing
// /events sees the episode without diffing counters.
func IsRetryStorm(st SweepStats) bool {
	return st.Targets > 0 && st.Retries >= st.Targets
}
