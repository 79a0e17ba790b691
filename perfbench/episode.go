package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"machvm/internal/measure"
	"machvm/internal/workload"
)

// lane is one driving goroutine: its simulated CPU's ops, run in order.
type lane struct {
	ops int
	op  func(i int, tr *tracer) error
	tr  *tracer // nil when the episode is untraced
}

// episode is one booted, warmed world with a fixed plan of ops. Episodes
// of the same workload and seed do identical work, so a run repeats them
// until its time is up.
type episode struct {
	w       *workload.MachWorld
	lanes   []*lane
	setupNS int64
	// vnow reads the virtual clock for per-op and per-span deltas.
	vnow func() int64
	// window is how many consecutive ops of a lane share one virtual
	// time per op: the clock advance over the window divided by the ops
	// every lane completed in it. With one lane and a window of 1 (the
	// default) that is each op's exact virtual time. When CPUs share the
	// clock an op's own charges cannot be told apart from the other
	// CPUs', so a multi-lane workload averages over a window instead.
	window int
	// verify re-reads the final state through the oracle (not timed).
	verify func() error
	// pager holds the traced disk swap pager's counts (traced only).
	pager pagerCalls
}

// episodeResult is what one episode measured.
type episodeResult struct {
	traced        bool
	setupNS       int64
	runNS         int64
	ops, failed   int
	host          []int64 // host ns per op, all lanes; dropped by summarize
	hostP50       float64 // host µs per op at p50, p90 and p99
	hostP90       float64
	hostP99       float64
	laneVirt      [][]int64 // virtual ns per op, by lane
	virtNS        int64     // virtual clock advance over the op phase
	allocBytes    uint64
	gcCycles      uint32
	gcPauseNS     uint64
	heapPeak      uint64
	counters      map[string]float64 // deltas over the op phase
	liveObjects   float64            // ObjectsCreated - ObjectsTerminated at phase end
	tableBytesMax float64            // pmap table-memory high-water mark at phase end
	slo           measure.SLOReport
	digest        string
	kinds         [numSpanKinds]kindStats
	spans         []span
	pager         pagerCalls
	verifyFailed  bool
}

// runEpisode drives every lane of ep through its plan and measures it.
func runEpisode(ep *episode, o *oracle) (*episodeResult, error) {
	defer ep.w.Close()
	k := ep.w.Kernel
	res := &episodeResult{setupNS: ep.setupNS, traced: ep.lanes[0].tr != nil}
	for _, ln := range ep.lanes {
		res.laneVirt = append(res.laneVirt, make([]int64, 0, ln.ops))
	}

	// Two collections: the first moves the previous episode's world into
	// the sync.Pool victim caches, the second frees it, so every episode
	// starts its op phase from the same heap.
	runtime.GC()
	runtime.GC()
	before := counters(ep.w)
	k.FaultLatency().Reset()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopPeak := sampleHeapPeak()

	start := time.Now()
	hostByLane := make([][]int64, len(ep.lanes))
	failedByLane := make([]int, len(ep.lanes))
	done := make([]laneCount, len(ep.lanes))
	completed := func() int64 {
		var n int64
		for i := range done {
			n += done[i].n.Load()
		}
		return n
	}
	window := ep.window
	if window == 0 {
		window = 1
	}
	var wg sync.WaitGroup
	for li, ln := range ep.lanes {
		hostByLane[li] = make([]int64, 0, ln.ops)
		wg.Add(1)
		go func(li int, ln *lane) {
			defer wg.Done()
			host, virt := hostByLane[li], res.laneVirt[li]
			var v0, n0 int64
			for i := 0; i < ln.ops; i++ {
				if i%window == 0 {
					v0, n0 = ep.vnow(), completed()
				}
				bad := o.mismatches.Load()
				h0 := time.Now()
				ln.tr.beginOp(i)
				err := ln.op(i, ln.tr)
				ln.tr.endOp()
				host = append(host, time.Since(h0).Nanoseconds())
				done[li].n.Add(1)
				if (i+1)%window == 0 || i+1 == ln.ops {
					// Every op of the window gets the window's virtual
					// time per op completed machine-wide (see window).
					per := (ep.vnow() - v0) / (completed() - n0)
					for len(virt) <= i {
						virt = append(virt, per)
					}
				}
				// With several lanes another lane's mismatch can land
				// during this op; it then counts once more, never less.
				if err != nil || o.mismatches.Load() != bad {
					failedByLane[li]++
				}
			}
			hostByLane[li], res.laneVirt[li] = host, virt
		}(li, ln)
	}
	wg.Wait()
	res.runNS = time.Since(start).Nanoseconds()
	res.heapPeak = stopPeak()
	runtime.ReadMemStats(&ms1)

	for li, ln := range ep.lanes {
		res.ops += ln.ops
		res.failed += failedByLane[li]
		res.host = append(res.host, hostByLane[li]...)
	}
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs

	res.slo = k.SLOReport()
	after := counters(ep.w)
	res.counters = make(map[string]float64, len(after))
	for name, v := range after {
		res.counters[name] = v - before[name]
	}
	res.virtNS = int64(res.counters["clock"])
	res.liveObjects = after["ObjectsCreated"] - after["ObjectsTerminated"]
	res.tableBytesMax = after["pmap.TableBytesMax"]
	res.digest = digest(ep.w, res)

	if res.traced {
		for _, ln := range ep.lanes {
			for kind := range res.kinds {
				dst, src := &res.kinds[kind], &ln.tr.kinds[kind]
				dst.calls += src.calls
				dst.selfNS += src.selfNS
				dst.hostNS = append(dst.hostNS, src.hostNS...)
				dst.selfPerNS = append(dst.selfPerNS, src.selfPerNS...)
				dst.virtNS = append(dst.virtNS, src.virtNS...)
				dst.faultingNS = append(dst.faultingNS, src.faultingNS...)
			}
		}
		res.spans = ep.lanes[0].tr.kept
		res.pager = ep.pager
	}

	bad := o.mismatches.Load()
	if err := ep.verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if o.mismatches.Load() != bad {
		res.verifyFailed = true
	}
	if res.slo.InvariantViolations > 0 {
		return nil, fmt.Errorf("%d kernel invariant violations after the op phase", res.slo.InvariantViolations)
	}
	return res, nil
}

// laneCount is one lane's completed ops, padded to its own cache line.
type laneCount struct {
	n atomic.Int64
	_ [56]byte
}

// summarize keeps what the run's metrics need from an episode and drops
// the per-op and per-span samples unless keep is set, so memory — and
// with it the heap the next episode measures — does not grow with the
// number of episodes a run has time for.
func (e *episodeResult) summarize(keep bool) {
	host := sorted(e.host)
	e.hostP50 = percentile(host, 0.50) / 1e3
	e.hostP90 = percentile(host, 0.90) / 1e3
	e.hostP99 = percentile(host, 0.99) / 1e3
	e.host = nil
	if !keep {
		e.laneVirt = nil
		e.kinds = [numSpanKinds]kindStats{}
		e.spans = nil
	}
}

// sampleHeapPeak samples the Go heap every millisecond until the returned
// function is called; that function stops the sampler, waits for it and
// returns the highest heap seen.
func sampleHeapPeak() func() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		peak := read()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if v := read(); v > peak {
					peak = v
				}
			case <-stop:
				if v := read(); v > peak {
					peak = v
				}
				done <- peak
				return
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

// counters reads every counter the per-layer metrics derive from: the
// kernel stats, the pmap module stats, the machine's TLB, IPI, charge and
// disk counters, and the virtual clock.
func counters(w *workload.MachWorld) map[string]float64 {
	m := w.Machine
	m.FlushAllCharges()
	out := make(map[string]float64, 96)
	snap := reflect.ValueOf(w.Kernel.Stats().Snapshot())
	for i := 0; i < snap.NumField(); i++ {
		out[snap.Type().Field(i).Name] = float64(snap.Field(i).Uint())
	}
	ms := w.Kernel.Module().Stats()
	out["pmap.Enters"] = float64(ms.Enters.Load())
	out["pmap.Removes"] = float64(ms.Removes.Load())
	out["pmap.Protects"] = float64(ms.Protects.Load())
	out["pmap.Walks"] = float64(ms.Walks.Load())
	out["pmap.WalkMisses"] = float64(ms.WalkMisses.Load())
	out["pmap.RemoveAlls"] = float64(ms.RemoveAlls.Load())
	out["pmap.RangeEnters"] = float64(ms.RangeEnters.Load())
	out["pmap.Promotions"] = float64(ms.Promotions.Load())
	out["pmap.Demotions"] = float64(ms.Demotions.Load())
	out["pmap.TableBytes"] = float64(ms.TableBytes.Load())
	out["pmap.TableBytesMax"] = float64(ms.TableBytesMax.Load())
	for _, c := range m.CPUs() {
		ts := c.TLB.Stats()
		out["tlb.Hits"] += float64(ts.Hits)
		out["tlb.Misses"] += float64(ts.Misses)
		out["tlb.Flushes"] += float64(ts.PageFlushes + ts.SpaceFlushes + ts.FullFlushes)
		out["cpu.ChargedNS"] += float64(c.ChargedNS())
		out["cpu.IPIsReceived"] += float64(c.IPIsReceived())
	}
	out["ipis"] = float64(m.IPIsSent())
	reads, writes := w.FS.Disk.Traffic()
	out["disk.reads"] = float64(reads)
	out["disk.writes"] = float64(writes)
	out["clock"] = float64(m.Clock.Now())
	return out
}

// digest hashes the modelled state the episode ended in: the virtual
// clock, the kernel stats snapshot, the pmap module stats, the machine's
// IPI and TLB counters, the fault-latency percentiles and every op's
// virtual time. It is a function of the model alone, so a change that
// only speeds up the simulator leaves it unchanged, and a traced episode
// must match an untraced one.
func digest(w *workload.MachWorld, res *episodeResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "clock=%d\n", w.Machine.Clock.Now())
	fmt.Fprintf(h, "stats=%+v\n", w.Kernel.Stats().Snapshot())
	c := counters(w)
	names := make([]string, 0, len(c))
	for name := range c {
		if strings.Contains(name, ".") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%.0f\n", name, c[name])
	}
	for _, cpu := range w.Machine.CPUs() {
		fmt.Fprintf(h, "cpu%d tlb=%+v ipis=%d\n", cpu.ID, cpu.TLB.Stats(), cpu.IPIsReceived())
	}
	fmt.Fprintf(h, "fault p50=%d p99=%d max=%d n=%d\n", res.slo.FaultP50NS, res.slo.FaultP99NS, res.slo.FaultMaxNS, res.slo.Faults)
	var b [8]byte
	for _, virt := range res.laneVirt {
		for _, v := range virt {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
