package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type runConfig struct {
	wl      *workloadDef
	seed    uint64
	seconds time.Duration
	trace   bool
	ops     int // ops per lane per episode; 0 selects the workload's default
	oracle  *oracle
	out     string // span files go here; empty writes none
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type runResult struct {
	wl                *workloadDef
	cfg               runConfig
	correct           bool
	attempted, failed int
	episodes          []*episodeResult
	metrics           []metric
	shares            map[string]float64
	problems          []string
	spansPath         string
	// kneeLimitedBy names the test that set virt_knee_rps: "p99" or
	// "backlog" (untraced runs).
	kneeLimitedBy string
}

// run repeats whole episodes until the configured time is spent.
// Episode 0 warms the process up: it pays the Go heap's first growth and
// the first touch of its pages, so it gives the virtual metrics and the
// reference digest but no host figure. An untraced run needs three
// measured episodes after it, so every host figure is a median; a traced
// run alternates untraced and traced episodes, at least one measured of
// each, so tracing overhead and the traced digest can be compared.
func run(cfg runConfig) (*runResult, error) {
	minEpisodes := 4
	if cfg.trace {
		minEpisodes = 3
	}
	start := time.Now()
	r := &runResult{wl: cfg.wl, cfg: cfg, correct: true}
	for i := 0; i < minEpisodes || time.Since(start) < cfg.seconds; i++ {
		ep, err := cfg.wl.build(buildConfig{
			seed:   cfg.seed,
			ops:    cfg.ops,
			traced: cfg.trace && i%2 == 1,
			oracle: cfg.oracle,
		})
		if err != nil {
			return nil, fmt.Errorf("episode %d set-up: %w", i, err)
		}
		res, err := runEpisode(ep, cfg.oracle)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", i, err)
		}
		// The first untraced episode gives the virtual metrics and the
		// first traced one the per-layer metrics; later ones add host
		// figures only.
		res.summarize(i == 0 || (cfg.trace && i == 1))
		r.episodes = append(r.episodes, res)
		r.attempted += res.ops
		r.failed += res.failed
		if res.verifyFailed {
			r.problems = append(r.problems, fmt.Sprintf("episode %d: final state differs from the model", i))
		}
	}
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d ops failed or read wrong bytes", r.failed, r.attempted))
	}
	if cfg.wl.deterministic {
		for i, e := range r.episodes[1:] {
			if e.digest != r.episodes[0].digest {
				r.problems = append(r.problems, fmt.Sprintf("episode %d digest %s differs from episode 0 digest %s", i+1, e.digest, r.episodes[0].digest))
			}
		}
	}
	r.correct = len(r.problems) == 0

	if cfg.trace {
		r.metrics, r.shares = r.layerMetrics()
		if cfg.out != "" {
			if err := os.MkdirAll(cfg.out, 0o755); err != nil {
				return nil, err
			}
			r.spansPath = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.wl.name, cfg.seed))
			if err := writeSpans(r.spansPath, r.firstTraced().spans); err != nil {
				return nil, err
			}
		}
	} else {
		r.metrics = r.endToEnd()
	}
	return r, nil
}

// untraced returns the measured untraced episodes: all but the warm-up.
func (r *runResult) untraced() []*episodeResult {
	var out []*episodeResult
	for _, e := range r.episodes[1:] {
		if !e.traced {
			out = append(out, e)
		}
	}
	return out
}

func (r *runResult) traced() []*episodeResult {
	var out []*episodeResult
	for _, e := range r.episodes {
		if e.traced {
			out = append(out, e)
		}
	}
	return out
}

func (r *runResult) firstTraced() *episodeResult { return r.traced()[0] }

// opsPerSec is closed-loop throughput over the op phases of eps.
func opsPerSec(eps []*episodeResult) float64 {
	var ops, ns int64
	for _, e := range eps {
		ops += int64(e.ops)
		ns += e.runNS
	}
	return float64(ops) / (float64(ns) / 1e9)
}

// endToEnd computes the metrics a user of the system sees. Each host
// metric is the median of its values over the measured episodes, so one
// disturbed episode cannot move it; virtual metrics come from the first
// episode alone, so they do not depend on how many episodes the host had
// time for.
func (r *runResult) endToEnd() []metric {
	eps := r.untraced()
	first := r.episodes[0]
	var setup, tput, p50, p90, alloc, heap []float64
	for _, e := range eps {
		setup = append(setup, float64(e.setupNS)/1e9)
		tput = append(tput, opsPerSec([]*episodeResult{e}))
		p50 = append(p50, e.hostP50)
		p90 = append(p90, e.hostP90)
		alloc = append(alloc, float64(e.allocBytes)/float64(e.ops))
		heap = append(heap, float64(e.heapPeak)/(1<<20))
	}
	virt := sorted(flatten(first.laneVirt))
	knee, limitedBy := kneeRPS(first.laneVirt, r.wl.latencyLimitNS)
	r.kneeLimitedBy = limitedBy
	return []metric{
		{"setup_s", median(setup), "s"},
		{"ops_per_s", median(tput), "op/s"},
		{"op_p50_us", median(p50), "us"},
		{"op_p90_us", median(p90), "us"},
		{"virt_us_per_op", float64(first.virtNS) / float64(first.ops) / 1e3, "us"},
		{"virt_op_p50_us", percentile(virt, 0.50) / 1e3, "us"},
		{"virt_op_p99_us", percentile(virt, 0.99) / 1e3, "us"},
		{"virt_knee_rps", knee, "op/virt_s"},
		{"alloc_bytes_per_op", median(alloc), "B"},
		{"heap_peak_mb", median(heap), "MB"},
	}
}

// layerMetrics computes the per-layer metrics from the first traced
// episode, plus host figures from the run's untraced episodes, and each
// layer's share of op time (its self time over the root spans' time).
func (r *runResult) layerMetrics() ([]metric, map[string]float64) {
	t := r.firstTraced()
	c := t.counters
	ops := float64(t.ops)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50us := func(k spanKind) float64 { return percentile(sorted(t.kinds[k].hostNS), 0.5) / 1e3 }
	p50virt := func(k spanKind) float64 { return percentile(sorted(t.kinds[k].virtNS), 0.5) / 1e3 }
	p50self := func(k spanKind) float64 { return percentile(sorted(t.kinds[k].selfPerNS), 0.5) / 1e3 }
	faults := c["Faults"]
	var faulting []int64
	for _, k := range []spanKind{spanFault, spanTouch, spanAccess} {
		faulting = append(faulting, t.kinds[k].faultingNS...)
	}
	lane0 := t.laneVirt[0]
	tenth := len(lane0) / 10
	if tenth == 0 {
		tenth = 1
	}

	u := r.untraced()
	var hostP99, gcCycles, gcPause []float64
	for _, e := range u {
		hostP99 = append(hostP99, e.hostP99)
		gcCycles = append(gcCycles, float64(e.gcCycles))
		gcPause = append(gcPause, float64(e.gcPauseNS)/1e6)
	}

	shares := make(map[string]float64, len(layers))
	var rootNS float64
	for _, d := range t.kinds[spanOp].hostNS {
		rootNS += float64(d)
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		shares[spanLayers[k]] += div(float64(t.kinds[k].selfNS), rootNS)
	}

	ms := []metric{
		{"task.fork_us", p50us(spanTaskFork), "us"},
		{"task.fork_virt_us", p50virt(spanTaskFork), "us"},
		{"task.destroy_us", p50us(spanTaskDestroy), "us"},
		{"task.destroy_virt_us", p50virt(spanTaskDestroy), "us"},

		{"core.map.allocate_us", p50us(spanMapAllocate), "us"},
		{"core.map.deallocate_us", p50us(spanMapDeallocate), "us"},
		{"core.map.hint_hit_ratio", div(c["MapHintHits"], c["MapLookups"]), "ratio"},
		{"core.map.fault_retries_per_kfault", div(c["FaultRetries"], faults/1000), "count"},

		{"core.fault.per_op", div(faults, ops), "count"},
		{"core.fault.host_ns", percentile(sorted(faulting), 0.5), "ns"},
		{"core.fault.virt_p50_us", float64(t.slo.FaultP50NS) / 1e3, "us"},
		{"core.fault.virt_p99_us", float64(t.slo.FaultP99NS) / 1e3, "us"},
		{"core.fault.zero_fill_share", div(c["ZeroFillFaults"], faults), "ratio"},
		{"core.fault.cow_share", div(c["CowFaults"], faults), "ratio"},
		{"core.fault.resident_share", div(c["ReactivateHits"], faults), "ratio"},
		{"core.fault.pagein_share", div(c["PagerRoundTrips"], faults), "ratio"},

		{"core.object.shadows_created_per_op", div(c["ShadowsCreated"], ops), "count"},
		{"core.object.shadows_collapsed_per_op", div(c["ShadowsCollapsed"], ops), "count"},
		{"core.object.live_end", t.liveObjects, "count"},
		{"core.object.cache_revives_per_op", div(c["CacheRevives"], ops), "count"},
		{"core.object.virt_us_per_op_first_tenth", mean(lane0[:tenth]) / 1e3, "us"},
		{"core.object.virt_us_per_op_last_tenth", mean(lane0[len(lane0)-tenth:]) / 1e3, "us"},

		{"core.page.allocs_per_op", div(c["PagesAllocated"], ops), "count"},
		{"core.page.magazine_hit_ratio", div(c["MagazineHits"], c["PagesAllocated"]), "ratio"},
		{"core.page.busy_waits", c["BusyWaits"], "count"},
		{"core.page.alloc_races", c["AllocRaces"], "count"},

		{"core.pageout.scan_us", p50us(spanPageoutScan), "us"},
		{"core.pageout.scan_virt_us", p50virt(spanPageoutScan), "us"},
		{"core.pageout.pages_per_op", div(c["Pageouts"], ops), "count"},
		{"core.pageout.pages_per_run", div(c["PageoutRunPages"], c["PageoutRuns"]), "count"},
		{"core.pageout.skips", c["PageoutSkips"], "count"},

		{"pager.request_per_op", div(float64(t.kinds[spanPagerRequest].calls), ops), "count"},
		{"pager.request_us", p50us(spanPagerRequest), "us"},
		{"pager.request_virt_us", p50virt(spanPagerRequest), "us"},
		{"pager.pages_per_request", div(float64(t.pager.requestPages), float64(t.kinds[spanPagerRequest].calls)), "count"},
		{"pager.write_per_op", div(float64(t.kinds[spanPagerWrite].calls), ops), "count"},
		{"pager.write_us", p50us(spanPagerWrite), "us"},
		{"pager.errors", float64(t.pager.errors), "count"},
		{"pager.retries", c["PagerRetries"], "count"},

		{"ztier.request_self_us", p50self(spanZtierRequest), "us"},
		{"ztier.write_self_us", p50self(spanZtierWrite), "us"},
		{"ztier.hit_ratio", div(c["ZtierHits"], c["ZtierHits"]+c["ZtierMisses"]), "ratio"},
		{"ztier.compress_ratio", div(c["ZtierCompressedBytes"], c["ZtierStoredBytes"]), "ratio"},
		{"ztier.evictions_per_op", div(c["ZtierEvictions"], ops), "count"},
		{"ztier.bypasses_per_op", div(c["ZtierBypasses"], ops), "count"},

		{"pmap.enters_per_fault", div(c["pmap.Enters"], faults), "count"},
		{"pmap.range_enters_per_fault", div(c["pmap.RangeEnters"], faults), "count"},
		{"pmap.removes_per_op", div(c["pmap.Removes"], ops), "count"},
		{"pmap.walk_miss_ratio", div(c["pmap.WalkMisses"], c["pmap.Walks"]), "ratio"},
		{"pmap.promotions", c["pmap.Promotions"], "count"},
		{"pmap.demotions", c["pmap.Demotions"], "count"},
		{"pmap.table_bytes_max", t.tableBytesMax, "B"},

		{"hw.tlb_hit_ratio", div(c["tlb.Hits"], c["tlb.Hits"]+c["tlb.Misses"]), "ratio"},
		{"hw.tlb_flushes_per_op", div(c["tlb.Flushes"], ops), "count"},
		{"hw.ipis_per_op", div(c["ipis"], ops), "count"},
		{"hw.cpu_charged_us", div(c["cpu.ChargedNS"], ops) / 1e3, "us"},

		{"unixfs.disk_reads_per_op", div(c["disk.reads"], ops), "count"},
		{"unixfs.disk_writes_per_op", div(c["disk.writes"], ops), "count"},

		{"host.op_p99_us", median(hostP99), "us"},
		{"host.gc_cycles", median(gcCycles), "count"},
		{"host.gc_pause_ms", median(gcPause), "ms"},
		{"host.trace_overhead_ops_per_s", opsPerSec(u) - opsPerSec(r.traced()), "op/s"},
	}
	for _, l := range layers {
		ms = append(ms, metric{"share." + l, shares[l], "ratio"})
	}
	return ms, shares
}

// summary is the result line's object.
func (r *runResult) summary() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

// print writes the human-readable report that precedes the result line.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d %s: %d episodes, %d ops, %d failed, fail_ratio=%g, %d bytes checked\n",
		r.wl.name, r.cfg.seed, mode, len(r.episodes), r.attempted, r.failed,
		float64(r.failed)/float64(r.attempted), r.cfg.oracle.checkedBytes.Load())
	fmt.Fprintf(w, "why: %s\n", r.wl.why)
	for i, e := range r.episodes {
		kind := "untraced"
		if e.traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "episode %d %s: digest %s setup %.3fs run %.3fs ops %d heap peak %.1f MB, %d GCs\n",
			i, kind, e.digest, float64(e.setupNS)/1e9, float64(e.runNS)/1e9, e.ops, float64(e.heapPeak)/(1<<20), e.gcCycles)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-42s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if r.kneeLimitedBy != "" {
		fmt.Fprintf(w, "virt_knee_rps is limited by the %s test (p99 limit %g ms)\n",
			r.kneeLimitedBy, float64(r.wl.latencyLimitNS)/1e6)
	}
	if r.shares != nil {
		t := r.firstTraced()
		fmt.Fprintf(w, "self time by layer (first traced episode):\n")
		for _, l := range layers {
			var self int64
			for k := spanKind(0); k < numSpanKinds; k++ {
				if spanLayers[k] == l {
					self += t.kinds[k].selfNS
				}
			}
			fmt.Fprintf(w, "  %-14s %10.3f ms %6.2f%%\n", l, float64(self)/1e6, 100*r.shares[l])
		}
		if r.spansPath != "" {
			fmt.Fprintf(w, "spans written to %s\n", r.spansPath)
		}
	}
}

func sorted(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func flatten(xss [][]int64) []int64 {
	var out []int64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(asc []int64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(asc[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// kneeRPS is the highest offered rate, in ops per virtual second, that
// keeps the open-loop p99 latency within limitNS with no growing backlog.
// Ops fall due at evenly spaced times, split round-robin over the lanes
// (one simulated CPU each); each lane serves its ops first come, first
// served, with the virtual service times the closed-loop run recorded,
// and latency counts from the due time. Rates are tried on a fixed ladder
// (quarter-octave steps from 1 op/s); the knee is then located between
// the last rung that passes and the first that fails by bisection.
// limitedBy names the test the first failing rate fails: "p99" when the
// latency limit sets the knee, "backlog" when capacity does.
func kneeRPS(lanes [][]int64, limitNS int64) (knee float64, limitedBy string) {
	ok := func(rate float64) bool { p99, backlog := openLoop(lanes, rate, limitNS); return p99 && backlog }
	step := math.Pow(2, 0.25)
	lo, hi := 0.0, 1.0
	for hi < 1e12 && ok(hi) {
		lo, hi = hi, hi*step
	}
	if lo > 0 {
		for i := 0; i < 40; i++ {
			mid := math.Sqrt(lo * hi)
			if ok(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	if _, backlog := openLoop(lanes, hi, limitNS); !backlog {
		return lo, "backlog"
	}
	return lo, "p99"
}

// openLoop runs the open-loop model at rate and reports whether the p99
// latency stays within limitNS and whether every lane keeps up.
func openLoop(lanes [][]int64, rate float64, limitNS int64) (p99OK, backlogOK bool) {
	gap := float64(len(lanes)) * 1e9 / rate // ns between one lane's due times
	var total, over int
	backlogOK = true
	for _, svc := range lanes {
		var free, busy float64
		for i, s := range svc {
			due := float64(i) * gap
			start := math.Max(due, free)
			free = start + float64(s)
			busy += float64(s)
			if free-due > float64(limitNS) {
				over++
			}
		}
		// Offered work beyond the lane's capacity grows a backlog.
		if busy > float64(len(svc))*gap {
			backlogOK = false
		}
		total += len(svc)
	}
	// The nearest-rank p99 is within the limit when at most this many
	// latencies exceed it.
	return over <= total-int(math.Ceil(0.99*float64(total))), backlogOK
}
