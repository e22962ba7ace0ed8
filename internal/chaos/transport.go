package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"evr/internal/netsim"
	"evr/internal/server"
)

// maxInjectedDelay clamps per-request synthetic latency so a scenario with
// a slow link and a huge payload degrades the run, not the CI budget.
const maxInjectedDelay = 2 * time.Second

// lossError is the synthetic transport failure injected for a lost
// request. The client fetch layer classifies transport errors as
// transient, so a loss becomes a retry — exactly what a dropped TCP
// connection does.
type lossError struct{ url string }

func (e *lossError) Error() string { return fmt.Sprintf("chaos: injected loss on %s", e.url) }

// faultTransport injects one client's network profile under the load
// generator's timing layer: per-request bandwidth/RTT delay, seeded
// deterministic loss, and seeded jitter. Determinism contract: the fault
// decision for a request depends only on (scenario seed, user, URL path,
// per-URL attempt number within the pass) — never on wall-clock time or
// goroutine interleaving — so two same-seed runs inject identical
// schedules.
type faultTransport struct {
	base  http.RoundTripper
	seed  uint64
	loss  float64
	link  netsim.Link
	trace netsim.Trace // non-empty overrides link per segment index

	mu       sync.Mutex
	attempts map[string]int
}

func newFaultTransport(base http.RoundTripper, seed uint64, class *Class) *faultTransport {
	t := &faultTransport{
		base:     base,
		seed:     seed,
		loss:     class.Loss,
		link:     netsim.WiFi300(),
		attempts: make(map[string]int),
	}
	if class.Link != "" {
		t.link, _ = netsim.ClassByName(class.Link)
	}
	if len(class.LinkTrace) > 0 {
		steps := make([]netsim.Link, len(class.LinkTrace))
		for i, name := range class.LinkTrace {
			steps[i], _ = netsim.ClassByName(name)
		}
		t.trace = netsim.Trace{Steps: steps}
	}
	return t
}

// resetAttempts starts a fresh per-URL attempt sequence — called at every
// pass start so each pass sees the identical fault schedule (the property
// the cross-pass checksum gate leans on).
func (t *faultTransport) resetAttempts() {
	t.mu.Lock()
	t.attempts = make(map[string]int)
	t.mu.Unlock()
}

// hashFrac maps (seed, url, attempt) to a uniform [0,1) fraction via a
// splitmix64-style mix — the deterministic coin every fault decision
// flips.
func hashFrac(seed uint64, url string, attempt int, salt uint64) float64 {
	h := seed ^ salt
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= 0x100000001b3
	}
	h ^= uint64(attempt) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	t.mu.Lock()
	attempt := t.attempts[path]
	t.attempts[path] = attempt + 1
	t.mu.Unlock()

	link := t.link
	if len(t.trace.Steps) > 0 {
		if ref, err := server.ParseRefPath(path); err == nil {
			link = t.trace.At(ref.Seg)
		}
	}
	loss := t.loss
	if link.LossRate > loss {
		loss = link.LossRate
	}
	if loss > 0 && hashFrac(t.seed, path, attempt, 0x10550000) < loss {
		return nil, &lossError{url: path}
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	// Read the body up front so the injected delay covers the transfer
	// the link would have taken, then replay it to the caller.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		return nil, err
	}
	d := time.Duration(link.RTTSeconds * float64(time.Second))
	if link.BandwidthBps > 0 {
		d += time.Duration(float64(len(body)) * 8 / link.BandwidthBps * float64(time.Second))
	}
	if link.JitterSeconds > 0 {
		frac := hashFrac(t.seed, path, attempt, 0x71773300)
		d += time.Duration(frac * link.JitterSeconds * float64(time.Second))
	}
	if d > maxInjectedDelay {
		d = maxInjectedDelay
	}
	if d > 0 {
		time.Sleep(d)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}
