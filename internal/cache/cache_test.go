package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evr/internal/telemetry"
)

// tkey mirrors the shape of the production keys: a string plus small ints.
type tkey struct {
	video string
	seg   int
}

func k(video string, seg int) tkey { return tkey{video, seg} }

func ofVideo(video string) func(tkey) bool {
	return func(key tkey) bool { return key.video == video }
}

func newTest(maxBytes int64) *Cache[tkey, string] {
	return New[tkey](maxBytes, func(s string) int64 { return int64(len(s)) }, telemetry.NewRegistry(), "t", Help{})
}

func val(size int) string { return strings.Repeat("x", size) }

var errBoom = errors.New("boom")

// waitFor polls cond; the concurrent tests use it to wait on the cache's own
// counters (a waiter is parked once Coalesced counts it) instead of sleeping.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// step is one sequential operation of TestCacheBehaviours.
type step struct {
	op   string // "get", "fail" (a get whose load errors), "resident", "purge" (by video)
	key  tkey
	size int     // bytes the load supplies
	want Outcome // get/fail: expected outcome; resident: Hit if resident, else Miss
}

// TestCacheBehaviours is the single-goroutine half of the suite: every
// behaviour the four caches used to pin separately, as scripts against the
// counters.
func TestCacheBehaviours(t *testing.T) {
	cases := []struct {
		name  string
		max   int64
		steps []step
		want  Stats
	}{
		{
			name: "hit after miss",
			max:  1 << 20,
			steps: []step{
				{"get", k("v", 0), 7, Miss}, {"get", k("v", 0), 7, Hit}, {"get", k("v", 0), 7, Hit},
			},
			want: Stats{Hits: 2, Misses: 1, Entries: 1, Bytes: 7},
		},
		{
			name: "failed load is handed over but never retained",
			max:  1 << 20,
			steps: []step{
				{"fail", k("v", 0), 5, Miss}, {"fail", k("v", 0), 5, Miss}, {"resident", k("v", 0), 0, Miss},
			},
			want: Stats{Misses: 2},
		},
		{
			name: "size-based eviction drops exactly the least recently used",
			max:  100,
			steps: []step{
				{"get", k("v", 0), 40, Miss}, {"get", k("v", 1), 40, Miss},
				{"get", k("v", 0), 40, Hit},  // promote 0: 1 is now coldest
				{"get", k("v", 2), 40, Miss}, // 120 > 100: 1 goes
				{"get", k("v", 0), 40, Hit}, {"get", k("v", 2), 40, Hit},
				{"get", k("v", 1), 40, Miss}, // reload evicts 0, the coldest after the hits above
				{"resident", k("v", 0), 0, Miss}, {"resident", k("v", 2), 0, Hit},
			},
			want: Stats{Hits: 3, Misses: 4, Evictions: 2, Entries: 2, Bytes: 80},
		},
		{
			name: "oversized value is served, counted, never cached",
			max:  10,
			steps: []step{
				{"get", k("v", 0), 11, Miss}, {"get", k("v", 0), 11, Miss},
			},
			want: Stats{Misses: 2, Oversized: 2},
		},
		{
			name: "oversized value does not evict residents",
			max:  100,
			steps: []step{
				{"get", k("v", 0), 10, Miss}, {"get", k("v", 1), 10, Miss}, {"get", k("v", 2), 10, Miss},
				{"get", k("v", 99), 101, Miss},
				{"get", k("v", 0), 10, Hit}, {"get", k("v", 1), 10, Hit}, {"get", k("v", 2), 10, Hit},
			},
			want: Stats{Hits: 3, Misses: 4, Oversized: 1, Entries: 3, Bytes: 30},
		},
		{
			name: "purge drops only matching residents",
			max:  1 << 20,
			steps: []step{
				{"get", k("a", 0), 3, Miss}, {"get", k("b", 0), 2, Miss},
				{"get", k("a", 1), 3, Miss}, {"get", k("b", 1), 2, Miss},
				{"purge", k("a", 0), 0, 0},
				{"get", k("b", 0), 2, Hit}, {"get", k("b", 1), 2, Hit},
				{"get", k("a", 0), 1, Miss},
			},
			want: Stats{Hits: 2, Misses: 5, Purged: 2, Entries: 3, Bytes: 5},
		},
		{
			name: "zero budget retains nothing",
			max:  0,
			steps: []step{
				{"get", k("v", 0), 1, Miss}, {"get", k("v", 0), 1, Miss},
			},
			want: Stats{Misses: 2, Oversized: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTest(tc.max)
			for i, s := range tc.steps {
				switch s.op {
				case "get", "fail":
					loaded := false
					v, outcome, err := c.Get(s.key, func() (string, error) {
						loaded = true
						if s.op == "fail" {
							return val(s.size), errBoom
						}
						return val(s.size), nil
					})
					if outcome != s.want || loaded != (s.want == Miss) {
						t.Fatalf("step %d %v: outcome %v (loaded %v), want %v", i, s, outcome, loaded, s.want)
					}
					if len(v) != s.size || (err != nil) != (s.op == "fail") {
						t.Fatalf("step %d %v: got %d bytes, err %v", i, s, len(v), err)
					}
				case "resident":
					if ok := c.Contains(s.key); ok != (s.want == Hit) {
						t.Fatalf("step %d %v: resident = %v", i, s, ok)
					}
				case "purge":
					c.PurgeKeys(ofVideo(s.key.video))
				}
			}
			tc.want.MaxBytes = tc.max
			if got := c.Stats(); got != tc.want {
				t.Errorf("stats\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestSingleflightCoalesces parks N-1 requests on one cold key's load:
// exactly one load runs, everyone receives its value, and the joiners are
// accounted as coalesced.
func TestSingleflightCoalesces(t *testing.T) {
	const n = 16
	c := newTest(1 << 20)
	var loads atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, outcome, err := c.Get(k("v", 7), func() (string, error) {
				loads.Add(1)
				<-release
				return "shared", nil
			})
			if v != "shared" || err != nil || outcome == Hit {
				t.Errorf("coalesced get = %q, %v, %v", v, outcome, err)
			}
		}()
	}
	waitFor(t, "every joiner to reach the flight", func() bool { return c.Stats().Coalesced == n-1 })
	close(release)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Errorf("%d loads ran, want 1", got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Coalesced != n-1 || st.Hits != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPurgeDoomsOnlyMatchingInflight pins the overtaken-flight rule: a load
// in flight when a matching purge lands is served to its caller but never
// retained, while another video's concurrent load stays cacheable.
func TestPurgeDoomsOnlyMatchingInflight(t *testing.T) {
	c := newTest(1 << 20)
	release := make(chan struct{})
	var started, done sync.WaitGroup
	for _, key := range []tkey{k("V", 0), k("other", 0)} {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			v, _, err := c.Get(key, func() (string, error) {
				started.Done()
				<-release // mid-read while the purge lands
				return "stale", nil
			})
			if v != "stale" || err != nil {
				t.Errorf("%v: overtaken load not served to its caller: %q, %v", key, v, err)
			}
		}()
	}
	started.Wait()
	c.PurgeKeys(ofVideo("V"))
	close(release)
	done.Wait()

	v, outcome, _ := c.Get(k("V", 0), func() (string, error) { return "fresh", nil })
	if outcome != Miss || v != "fresh" {
		t.Errorf("doomed flight was retained: %q, %v", v, outcome)
	}
	if v, outcome, _ := c.Get(k("V", 0), nil); outcome != Hit || v != "fresh" {
		t.Errorf("cache holds %q (%v), want the post-purge value", v, outcome)
	}
	if _, outcome, _ := c.Get(k("other", 0), nil); outcome != Hit {
		t.Error("unrelated in-flight load was doomed by the purge")
	}
	if st := c.Stats(); st.Doomed != 1 || st.Purged != 0 {
		t.Errorf("Doomed = %d, Purged = %d, want 1 and 0", st.Doomed, st.Purged)
	}
}

// TestPanickingLoadReleasesFlight is the regression test for the stranded
// flight: every old cache removed its flight only after load returned
// normally, so a load that panicked (net/http recovers handler panics and
// keeps serving) left the key's waiters — and every later request for it —
// blocked for the life of the process.
func TestPanickingLoadReleasesFlight(t *testing.T) {
	c := newTest(1 << 20)
	key := k("v", 0)
	boom := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Get(key, func() (string, error) { <-boom; panic("handler bug") }) // never returns
	}()
	type result struct {
		v       string
		outcome Outcome
		err     error
	}
	waiter := make(chan result, 1)
	waitFor(t, "the load to start", func() bool { return c.Stats().Misses == 1 })
	go func() {
		v, outcome, err := c.Get(key, func() (string, error) { return "waiter loaded", nil })
		waiter <- result{v, outcome, err}
	}()
	waitFor(t, "the waiter to park", func() bool { return c.Stats().Coalesced == 1 })
	close(boom)

	if r := <-recovered; r != "handler bug" {
		t.Errorf("panic did not propagate to the loader's caller: recovered %v", r)
	}
	select {
	case r := <-waiter:
		if r.v != "" || r.outcome != Coalesced || !errors.Is(r.err, ErrLoadPanicked) {
			t.Errorf("waiter got %q, %v, %v; want zero value, Coalesced, ErrLoadPanicked", r.v, r.outcome, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after the load panicked")
	}
	v, outcome, err := c.Get(key, func() (string, error) { return "reloaded", nil })
	if v != "reloaded" || outcome != Miss || err != nil {
		t.Errorf("Get after the panic = %q, %v, %v; want a fresh load", v, outcome, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("stats after recovery = %+v", st)
	}
}

// TestConcurrentChurn hammers a small cache from many goroutines under
// -race — hits, misses, coalescing, evictions and purges interleaving — and
// checks the accounting closes.
func TestConcurrentChurn(t *testing.T) {
	const workers, iters, budget = 8, 400, 256
	c := newTest(budget)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				seg := (g + i) % 12
				video := fmt.Sprintf("v%d", i%3)
				v, _, err := c.Get(k(video, seg), func() (string, error) { return val(16 + seg), nil })
				if err != nil || len(v) != 16+seg {
					t.Errorf("churn get seg %d: %d bytes, %v", seg, len(v), err)
					return
				}
				if i%50 == 0 {
					c.PurgeKeys(ofVideo(video))
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > budget {
		t.Errorf("cache grew past budget: %+v", st)
	}
	if st.Hits+st.Misses+st.Coalesced != workers*iters {
		t.Errorf("accounting leak: hits+misses+coalesced = %d, want %d", st.Hits+st.Misses+st.Coalesced, workers*iters)
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache[tkey, string]
	for i := 0; i < 2; i++ {
		v, outcome, err := c.Get(k("v", 0), func() (string, error) { return "direct", errBoom })
		if v != "direct" || outcome != Miss || err != errBoom {
			t.Fatalf("nil Get = %q, %v, %v; want load's own result", v, outcome, err)
		}
	}
	c.PurgeKeys(ofVideo("v"))
	if c.Contains(k("v", 0)) || c.Stats() != (Stats{}) {
		t.Error("nil cache not inert")
	}
}

// TestSeriesNames pins the telemetry contract the instantiating packages
// rely on: nine series, named prefix + a fixed suffix, live on the caller's
// registry — and private counters when there is no registry.
func TestSeriesNames(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[tkey](8, func(s string) int64 { return int64(len(s)) }, reg, "evr_x", Help{Hits: "hits help"})
	c.Get(k("a", 0), func() (string, error) { return "12345", nil })
	c.Get(k("a", 0), nil)
	c.Get(k("a", 1), func() (string, error) { return "12345", nil })     // evicts a/0
	c.Get(k("a", 2), func() (string, error) { return "123456789", nil }) // oversized
	c.PurgeKeys(ofVideo("a"))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP evr_x_hits_total hits help",
		"evr_x_hits_total 1", "evr_x_misses_total 3", "evr_x_coalesced_total 0",
		"evr_x_evictions_total 1", "evr_x_oversized_total 1", "evr_x_doomed_total 0",
		"evr_x_purged_total 1", "evr_x_entries 0", "evr_x_bytes 0",
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}

	private := New[tkey](8, func(s string) int64 { return 1 }, nil, "", Help{})
	private.Get(k("a", 0), func() (string, error) { return "v", nil })
	private.Get(k("a", 0), nil)
	if st := private.Stats(); st.Hits != 1 || st.Misses != 1 || st.Bytes != 1 {
		t.Errorf("registry-less stats = %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	if got := (Stats{}).HitRate(); got != 0 {
		t.Errorf("empty HitRate = %v", got)
	}
	if got := (Stats{Hits: 6, Misses: 1, Coalesced: 1}).HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}

// TestHitPathDoesNotAllocate guards the serve_zipf hot path: a resident-key
// Get must not box the key or the value.
func TestHitPathDoesNotAllocate(t *testing.T) {
	c := newTest(1 << 20)
	key := k("video", 3)
	load := func() (string, error) { return "payload", nil }
	c.Get(key, load)
	if n := testing.AllocsPerRun(200, func() { c.Get(key, load) }); n != 0 {
		t.Errorf("resident-key Get allocates %v times per call, want 0", n)
	}
}

// model is the plain reference the seeded test runs the cache against:
// residents in recency order (hottest first) and the loads in flight.
type model struct {
	max      int64
	resident []modelEntry
	flights  map[tkey]*modelFlight
}

type modelEntry struct {
	key tkey
	val string
}

type modelFlight struct {
	val     string
	fail    bool
	doomed  bool
	release chan struct{}
	results chan string // one value per Get riding the flight, loader included
	riders  int
}

func (m *model) find(key tkey) int {
	for i, e := range m.resident {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *model) touch(i int) {
	e := m.resident[i]
	copy(m.resident[1:i+1], m.resident[:i])
	m.resident[0] = e
}

func (m *model) bytes() (n int64) {
	for _, e := range m.resident {
		n += int64(len(e.val))
	}
	return n
}

func (m *model) insert(key tkey, v string) {
	if int64(len(v)) > m.max {
		return
	}
	if i := m.find(key); i >= 0 {
		m.resident[i].val = v
		m.touch(i)
	} else {
		m.resident = append([]modelEntry{{key, v}}, m.resident...)
	}
	for m.bytes() > m.max {
		m.resident = m.resident[:len(m.resident)-1]
	}
}

// TestModelRandomInterleavings drives seeded random Get / Purge / slow-load
// interleavings through the cache and a plain model in lockstep. Slow loads
// are held open on a channel the test loop releases later, so purges and
// joiners land while they are in flight. After every
// operation the resident set (and so the strict-LRU eviction order), the
// byte and entry gauges, and the outcome of every Get must match the model;
// no entry matching a purge is resident when Purge returns; a doomed or
// failed flight is never inserted.
func TestModelRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runModel(t, seed, 3000) })
	}
}

func runModel(t *testing.T, seed int64, ops int) {
	const budget = 100
	rng := rand.New(rand.NewSource(seed))
	reg := telemetry.NewRegistry()
	c := New[tkey](budget, func(s string) int64 { return int64(len(s)) }, reg, "m", Help{})
	m := &model{max: budget, flights: map[tkey]*modelFlight{}}
	videos := []string{"a", "b", "c"}
	randKey := func() tkey { return k(videos[rng.Intn(len(videos))], rng.Intn(4)) }
	version := 0
	newVal := func() string {
		version++
		size := 1 + rng.Intn(40)
		if rng.Intn(20) == 0 {
			size = budget + 1 + rng.Intn(10) // oversized
		}
		return fmt.Sprintf("%0*d", size, version)
	}
	doomed := int64(0)

	ride := func(key tkey, fl *modelFlight, outcome Outcome) {
		fl.riders++
		go func() {
			v, got, err := c.Get(key, func() (string, error) {
				<-fl.release
				if fl.fail {
					return fl.val, errBoom
				}
				return fl.val, nil
			})
			if got != outcome || (err != nil) != fl.fail {
				t.Errorf("flight rider on %v: outcome %v err %v, want %v (fail=%v)", key, got, err, outcome, fl.fail)
			}
			fl.results <- v
		}()
	}
	land := func(key tkey) {
		fl := m.flights[key]
		delete(m.flights, key)
		close(fl.release)
		for i := 0; i < fl.riders; i++ {
			if v := <-fl.results; v != fl.val {
				t.Fatalf("rider of %v got %q, want the flight's %q", key, v, fl.val)
			}
		}
		switch {
		case fl.doomed:
			doomed++
		case !fl.fail:
			m.insert(key, fl.val)
		}
	}

	for op := 0; op < ops; op++ {
		key := randKey()
		switch r := rng.Intn(100); {
		case r < 45: // get
			if fl := m.flights[key]; fl != nil {
				if m.find(key) < 0 {
					parked := c.Stats().Coalesced
					ride(key, fl, Coalesced)
					waitFor(t, "joiner to park", func() bool { return c.Stats().Coalesced == parked+1 })
					continue
				}
			}
			fresh, fail := newVal(), rng.Intn(8) == 0
			v, outcome, err := c.Get(key, func() (string, error) {
				if fail {
					return fresh, errBoom
				}
				return fresh, nil
			})
			if i := m.find(key); i >= 0 {
				if outcome != Hit || v != m.resident[i].val || err != nil {
					t.Fatalf("op %d get %v: %q %v %v, want hit on %q", op, key, v, outcome, err, m.resident[i].val)
				}
				m.touch(i)
			} else {
				if outcome != Miss || v != fresh || (err != nil) != fail {
					t.Fatalf("op %d get %v: %q %v %v, want a load of %q", op, key, v, outcome, err, fresh)
				}
				if !fail {
					m.insert(key, fresh)
				}
			}
		case r < 60: // start a slow load
			if m.flights[key] != nil || m.find(key) >= 0 {
				continue
			}
			fl := &modelFlight{val: newVal(), fail: rng.Intn(8) == 0, release: make(chan struct{}), results: make(chan string)}
			m.flights[key] = fl
			started := c.Stats().Misses
			ride(key, fl, Miss)
			waitFor(t, "slow load to start", func() bool { return c.Stats().Misses == started+1 })
		case r < 75: // land one slow load
			for key := range m.flights {
				land(key)
				break
			}
		default: // purge one video
			video := videos[rng.Intn(len(videos))]
			c.PurgeKeys(ofVideo(video))
			kept := m.resident[:0]
			for _, e := range m.resident {
				if e.key.video != video {
					kept = append(kept, e)
				}
			}
			m.resident = kept
			for key, fl := range m.flights {
				if key.video == video {
					fl.doomed = true
				}
			}
			for _, v := range videos {
				for seg := 0; seg < 4; seg++ {
					if v == video && c.Contains(k(v, seg)) {
						t.Fatalf("op %d: %v resident after Purge(%s) returned", op, k(v, seg), video)
					}
				}
			}
		}
		checkAgainstModel(t, op, c, m, reg)
	}
	for key := range m.flights {
		land(key)
	}
	checkAgainstModel(t, ops, c, m, reg)
	if st := c.Stats(); st.Doomed != doomed {
		t.Errorf("Doomed = %d, model doomed %d flights", st.Doomed, doomed)
	}
}

// checkAgainstModel compares the cache's resident set and gauges with the
// model's. Contains neither promotes nor counts, so checking perturbs
// nothing; an eviction of anything but the model's coldest entry shows up
// here as a resident-set mismatch.
func checkAgainstModel(t *testing.T, op int, c *Cache[tkey, string], m *model, reg *telemetry.Registry) {
	t.Helper()
	for _, video := range []string{"a", "b", "c"} {
		for seg := 0; seg < 4; seg++ {
			key := k(video, seg)
			if got, want := c.Contains(key), m.find(key) >= 0; got != want {
				t.Fatalf("after op %d: %v resident = %v, model says %v", op, key, got, want)
			}
		}
	}
	st := c.Stats()
	if st.Entries != int64(len(m.resident)) || st.Bytes != m.bytes() || st.Bytes > st.MaxBytes {
		t.Fatalf("after op %d: stats %+v, model holds %d entries / %d bytes", op, st, len(m.resident), m.bytes())
	}
	if e, b := reg.Gauge("m_entries").Value(), reg.Gauge("m_bytes").Value(); e != st.Entries || b != st.Bytes {
		t.Fatalf("after op %d: gauges %d entries / %d bytes, stats %+v", op, e, b, st)
	}
}
