package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// wireCounters are the egress counters of a set of coalescing writers.
type wireCounters struct {
	Writes, Flushes, Frames, Bytes, Stalls int64
}

// sysCounters is one snapshot of the program's cumulative counters,
// filled by deployment.counters from Stats-style accessors.
type sysCounters struct {
	Msgs map[string]int64 // protocol messages sent, by kind, all endpoints
	Peer wireCounters     // daemon-to-daemon links
	Port wireCounters     // client ports and the clients connected to them

	Retransmits, DupsDropped, Gaps, AcksSent int64 // transport.Reliable
	ChaosDropped, ChaosDup                   int64 // transport.Chaos
}

// nodeGauge is the instantaneous admission state of one node behind a
// client port (deployment.gauges).
type nodeGauge struct {
	queueDepth int64 // requests waiting, not yet granted
	admitBound int   // adaptive policy's self-tuned bound; 0 = none yet
	pressure   bool  // adaptive policy has switched to SSF ordering
}

// procCounters is one snapshot of process-wide cumulative counters.
type procCounters struct {
	CPUUS      float64 // user+system CPU of the whole process, load generator included
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
	GCPauseNS  uint64
}

// sub is the change from b to a.
func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{
		CPUUS:      a.CPUUS - b.CPUUS,
		Mallocs:    a.Mallocs - b.Mallocs,
		AllocBytes: a.AllocBytes - b.AllocBytes,
		GCCycles:   a.GCCycles - b.GCCycles,
		GCPauseNS:  a.GCPauseNS - b.GCPauseNS,
	}
}

func readProc() procCounters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		CPUUS:      float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3,
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		GCCycles:   ms.NumGC,
		GCPauseNS:  ms.PauseTotalNs,
	}
}

// snapshot is everything sampled at one slice boundary.
type snapshot struct {
	at   time.Time
	sys  sysCounters
	proc procCounters
}

// window is the measured span: slices consecutive intervals of length
// slice starting at start. Everything before start is warm-up.
type window struct {
	start  time.Time
	slice  time.Duration
	slices int
}

// index reports which slice instant t falls in, -1 when outside.
func (w *window) index(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	if i := int(d / w.slice); i < w.slices {
		return i
	}
	return -1
}

func (w *window) end() time.Time { return w.start.Add(time.Duration(w.slices) * w.slice) }

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinDispatcher prepares the calling goroutine to keep an open-loop
// schedule: it takes an OS thread for itself and asks the kernel not to
// round that thread's sleeps. The runtime's own timers are no use here —
// an idle Go process polls the network with millisecond timeouts, so a
// 100 us time.Sleep takes up to a millisecond exactly when the system
// under test is lightly loaded. The returned function undoes the pin.
func pinDispatcher() (unpin func()) {
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the default slack is 50 us
	return runtime.UnlockOSThread
}

// napUntil sleeps the calling thread (see pinDispatcher) until t.
func napUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// ownerTable is the safety check made from outside the program: every
// grant claims its resources here and every release frees them. A
// grant that finds a resource already claimed is a double grant.
type ownerTable struct {
	owner        []atomic.Int64
	doubleGrants atomic.Int64
}

func newOwnerTable(resources int) *ownerTable {
	return &ownerTable{owner: make([]atomic.Int64, resources)}
}

// claim marks res as held by who (non-zero).
func (o *ownerTable) claim(res []int, who int64) {
	for _, r := range res {
		if !o.owner[r].CompareAndSwap(0, who) {
			o.doubleGrants.Add(1)
		}
	}
}

func (o *ownerTable) free(res []int, who int64) {
	for _, r := range res {
		o.owner[r].CompareAndSwap(who, 0)
	}
}

// sliceLog is what the load generator recorded in one slice.
type sliceLog struct {
	lat                                 []int64 // request→grant ns; timeouts clamped to the timeout
	granted, good, shed, timedOut, errs int64
}

// sessionLog is one recorder. A closed-loop session owns one; open-loop
// requests share a few, hence the lock.
type sessionLog struct {
	mu     sync.Mutex
	slices []sliceLog
	single []int64 // sharded workloads: latencies of single-shard requests
	cross  []int64 // and of cross-shard ones
	err    error
}

func (l *sessionLog) add(idx int, out outcome, lat, slo time.Duration, sharded, cross bool) {
	if idx < 0 {
		return
	}
	l.mu.Lock()
	s := &l.slices[idx]
	switch out {
	case outGranted:
		s.granted++
		if slo == 0 || lat <= slo {
			s.good++
		}
		s.lat = append(s.lat, int64(lat))
		if sharded {
			if cross {
				l.cross = append(l.cross, int64(lat))
			} else {
				l.single = append(l.single, int64(lat))
			}
		}
	case outShed:
		s.shed++
	case outTimeout:
		s.timedOut++
		s.lat = append(s.lat, int64(lat))
	default:
		s.errs++
	}
	l.mu.Unlock()
}

// gaugeStats accumulates the instantaneous gauges sampled during the
// window (every gaugeEvery).
type gaugeStats struct {
	samples       int
	depthSum      float64
	depthMax      int64
	boundSum      float64
	boundSamples  int
	pressure      int
	pressureOf    int
	goroutinesMax int
}

const gaugeEvery = 50 * time.Millisecond

// loadResult is the raw record of one run of the load generator.
type loadResult struct {
	win     window
	snaps   []snapshot // slices+1 boundaries
	logs    []*sessionLog
	gauges  gaugeStats
	heapMB  float64 // liveHeapMB at window end
	late    []int64 // open loop: dispatch lateness (ns) of in-window arrivals
	offered []int64 // open loop: arrivals per slice
	dropped []int64 // open loop: arrivals refused at the in-flight cap, per slice
	gen     []*reqGen
	doubles int64
}

// runLoad drives d for warm-up plus the window and returns what it saw.
// tr is the tracer of a traced deployment, nil otherwise.
func runLoad(d *deployment, seed int64, warm, slice time.Duration, slices int, tr *tracer) (*loadResult, error) {
	w := d.w
	res := &loadResult{
		win:     window{start: time.Now().Add(warm), slice: slice, slices: slices},
		snaps:   make([]snapshot, slices+1),
		offered: make([]int64, slices),
		dropped: make([]int64, slices),
	}
	owner := newOwnerTable(w.resources)
	// The watchdog bounds a wedged deployment: no request of a healthy
	// run outlives the window by this much.
	ctx, cancel := context.WithDeadline(context.Background(), res.win.end().Add(30*time.Second))
	defer cancel()

	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // slice-boundary snapshots
		defer bg.Done()
		for k := 0; k <= slices; k++ {
			sleepUntil(res.win.start.Add(time.Duration(k) * slice))
			if k == 0 && tr != nil {
				tr.open.Store(true)
			}
			res.snaps[k] = snapshot{at: time.Now(), sys: d.counters(), proc: readProc()}
		}
		if tr != nil {
			tr.open.Store(false)
		}
	}()
	go func() { // gauges
		defer bg.Done()
		g := &res.gauges
		for t := res.win.start; t.Before(res.win.end()); t = t.Add(gaugeEvery) {
			sleepUntil(t)
			g.samples++
			g.goroutinesMax = max(g.goroutinesMax, runtime.NumGoroutine())
			nodes := d.gauges()
			for _, n := range nodes {
				g.depthSum += float64(n.queueDepth) / float64(len(nodes))
				g.depthMax = max(g.depthMax, n.queueDepth)
				g.pressureOf++
				if n.pressure {
					g.pressure++
				}
				if n.admitBound > 0 {
					g.boundSum += float64(n.admitBound)
					g.boundSamples++
				}
			}
		}
	}()

	if w.open() {
		openLoop(ctx, d, seed, warm, res, owner, tr)
	} else {
		closedLoop(ctx, d, seed, res, owner, tr)
	}
	bg.Wait()
	for _, l := range res.logs {
		if l.err != nil {
			return nil, fmt.Errorf("%s: acquire failed: %w", w.name, l.err)
		}
	}
	if tr != nil {
		// Let the fabric drain: a send still unmatched after the load
		// has stopped and the links have gone quiet was lost.
		for t0 := time.Now(); tr.inFlight() > 0 && time.Since(t0) < time.Second; {
			time.Sleep(time.Millisecond)
		}
	}
	// The generator's own sample logs are live too, and at tens of
	// thousands of grants per second they would be most of the number.
	res.heapMB = liveHeapMB() - float64(res.logBytes())/(1<<20)
	res.doubles = owner.doubleGrants.Load()
	return res, nil
}

// logBytes is the heap the load generator's latency logs occupy.
func (res *loadResult) logBytes() int {
	n := cap(res.late)
	for _, l := range res.logs {
		n += cap(l.single) + cap(l.cross)
		for k := range l.slices {
			n += cap(l.slices[k].lat)
		}
	}
	return 8 * n
}

// liveHeapMB is the heap still reachable after a forced collection.
// HeapAlloc, not HeapInuse: the spans behind the same live objects
// differed by 25–70 % between runs of one commit.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// readyGrants is how many grants end a set-up.
const readyGrants = 16

// firstGrants takes and returns resources 0..readyGrants-1 one after
// the other, cycling through the doors. Set-up ends when every door has
// served and tokens have moved, not at the last constructor — and a
// single first grant of an in-process deployment is one goroutine
// wake-up, too short to time.
func (d *deployment) firstGrants() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < readyGrants; i++ {
		release, out, err := d.doors[i%len(d.doors)](ctx, []int{i % d.w.resources})
		if out != outGranted {
			return fmt.Errorf("%s: grant %d of set-up failed (outcome %d): %v", d.w.name, i, out, err)
		}
		release()
	}
	return nil
}

func newSessionLog(slices int) *sessionLog {
	return &sessionLog{slices: make([]sliceLog, slices)}
}

// closedLoop runs one goroutine per session; each issues its next
// request only when the previous one was granted and released.
func closedLoop(ctx context.Context, d *deployment, seed int64, res *loadResult, owner *ownerTable, tr *tracer) {
	w := d.w
	var wg sync.WaitGroup
	for i, door := range d.doors {
		log, gen := newSessionLog(res.win.slices), newReqGen(w, seed, i)
		res.logs, res.gen = append(res.logs, log), append(res.gen, gen)
		who := int64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(res.win.end()) {
				rs := gen.next()
				t0 := time.Now()
				release, out, err := door(ctx, rs)
				t1 := time.Now()
				if out == outGranted {
					owner.claim(rs, who)
					if tr != nil {
						tr.clientGranted(rs[0], w.clientPort(), tr.at(t0), tr.at(t1))
					}
					owner.free(rs, who)
					release()
				}
				log.add(res.win.index(t1), out, t1.Sub(t0), w.slo, w.shards > 1, gen.lastCross)
				if out == outError {
					log.err = err
					return
				}
			}
		}()
	}
	wg.Wait()
}

// openLogs is how many recorders open-loop requests spread over.
const openLogs = 16

// openLoop offers Poisson arrivals at w.openRPS whether or not earlier
// requests have finished. A request belongs to the slice its due
// instant falls in and is timed from that instant, so a stall shows as
// latency on every request it delayed, not only on the one it hit.
func openLoop(ctx context.Context, d *deployment, seed int64, warm time.Duration, res *loadResult, owner *ownerTable, tr *tracer) {
	w := d.w
	for i := 0; i < openLogs; i++ {
		res.logs = append(res.logs, newSessionLog(res.win.slices))
	}
	gen := newReqGen(w, seed, 0)
	res.gen = append(res.gen, gen)
	arrivals := rand.New(rand.NewSource(substreamSeed(seed, w.name, "arrivals", 0)))
	gap := func() time.Duration {
		return time.Duration(arrivals.ExpFloat64() * float64(time.Second) / w.openRPS)
	}
	begin := res.win.start.Add(-warm)
	total := res.win.end().Sub(begin)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	var n int64
	defer pinDispatcher()()
	for next := gap(); next < total; next += gap() {
		due := begin.Add(next)
		napUntil(due)
		idx := res.win.index(due)
		if idx >= 0 {
			res.late = append(res.late, int64(time.Since(due)))
			res.offered[idx]++
		}
		if inflight.Add(1) > int64(w.maxInFlight) {
			inflight.Add(-1)
			if idx >= 0 {
				res.dropped[idx]++
			}
			continue
		}
		n++
		rs := gen.next()
		door, log, who := d.doors[n%int64(len(d.doors))], res.logs[n%openLogs], n
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			rctx, cancel := context.WithDeadline(ctx, due.Add(w.timeout))
			defer cancel()
			t0 := time.Now()
			release, out, err := door(rctx, rs)
			t1 := time.Now()
			lat := t1.Sub(due)
			switch out {
			case outGranted:
				owner.claim(rs, who)
				if tr != nil {
					tr.clientGranted(rs[0], true, tr.at(t0), tr.at(t1))
				}
				owner.free(rs, who)
				release()
			case outTimeout:
				lat = w.timeout
			case outError:
				log.mu.Lock()
				log.err = err
				log.mu.Unlock()
			}
			log.add(idx, out, lat, w.slo, false, false)
		}()
	}
	wg.Wait()
}
