package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"machvm/internal/core"
)

// spanKind names one timed call site. Every kind belongs to one layer,
// named after the module whose public function the span brackets.
type spanKind uint8

const (
	spanOp spanKind = iota // root: one whole op; its self time is the benchmark's own
	spanTaskFork
	spanTaskDestroy
	spanMapAllocate
	spanMapDeallocate
	spanObjectLookup
	spanFault
	spanTouch
	spanAccess
	spanPageoutScan
	spanPagerRequest
	spanPagerWrite
	spanZtierRequest
	spanZtierWrite
	spanZtierDrain
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "task.fork", "task.destroy", "core.map.allocate", "core.map.deallocate",
	"core.object.cache_lookup", "core.fault.fault", "core.fault.touch", "core.fault.access",
	"core.pageout.scan", "pager.request", "pager.write", "ztier.request", "ztier.write",
	"ztier.drain",
}

var spanLayers = [numSpanKinds]string{
	"bench", "task", "task", "core.map", "core.map",
	"core.object", "core.fault", "core.fault", "core.fault",
	"core.pageout", "pager", "pager", "ztier", "ztier",
	"ztier",
}

// layers lists every layer a span can belong to, in report order.
var layers = []string{"bench", "task", "core.map", "core.object", "core.fault", "core.pageout", "pager", "ztier"}

// span is one finished call: host times are nanoseconds since the
// tracer's base, virtual times are the simulated clock.
type span struct {
	id, parent   uint32 // parent 0 means none (a root span)
	op           int32
	kind         spanKind
	start, end   int64
	vstart, vend int64
}

type openSpan struct {
	span
	childNS int64  // host time covered by direct children
	faults  uint64 // kernel Faults counter at begin
}

// kindStats aggregates the finished spans of one kind.
type kindStats struct {
	calls      int64
	selfNS     int64
	hostNS     []int64 // inclusive host time per call
	selfPerNS  []int64 // self host time per call
	virtNS     []int64 // virtual time per call
	faultingNS []int64 // host time of calls during which the Faults counter moved
}

// maxKeptSpans caps the spans one tracer keeps for the span file; the
// aggregates above cover every span regardless.
const maxKeptSpans = 100000

// tracer records spans for one driving goroutine. Spans nest through an
// explicit stack, which is sound because every traced call of a lane —
// the pager wrappers included — runs on that lane's goroutine. A nil
// *tracer records nothing, so untraced runs pay one nil check per site.
type tracer struct {
	base   time.Time
	vnow   func() int64
	faults *atomic.Uint64
	nextID uint32
	op     int32
	inOp   bool // spans outside an op (set-up, final checks) are not recorded
	stack  []openSpan
	kinds  [numSpanKinds]kindStats
	kept   []span
}

func newTracer(base time.Time, vnow func() int64, faults *atomic.Uint64) *tracer {
	return &tracer{base: base, vnow: vnow, faults: faults, stack: make([]openSpan, 0, 16)}
}

// recording reports whether spans are being recorded now: tracing is on
// and the lane is inside an op.
func (t *tracer) recording() bool { return t != nil && t.inOp }

func (t *tracer) begin(k spanKind) {
	if !t.recording() {
		return
	}
	t.nextID++
	s := openSpan{span: span{id: t.nextID, op: t.op, kind: k}}
	if n := len(t.stack); n > 0 {
		s.parent = t.stack[n-1].id
	}
	s.faults = t.faults.Load()
	s.vstart = t.vnow()
	s.start = time.Since(t.base).Nanoseconds()
	t.stack = append(t.stack, s)
}

func (t *tracer) end(k spanKind) {
	if !t.recording() {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	n := len(t.stack) - 1
	s := t.stack[n]
	if s.kind != k {
		panic(fmt.Sprintf("perfbench: span %s closed while %s is open", spanNames[k], spanNames[s.kind]))
	}
	t.stack = t.stack[:n]
	s.end = now
	s.vend = t.vnow()
	dur := s.end - s.start
	self := dur - s.childNS
	if n > 0 {
		t.stack[n-1].childNS += dur
	}
	ks := &t.kinds[k]
	ks.calls++
	ks.selfNS += self
	ks.hostNS = append(ks.hostNS, dur)
	ks.selfPerNS = append(ks.selfPerNS, self)
	ks.virtNS = append(ks.virtNS, s.vend-s.vstart)
	if t.faults.Load() != s.faults {
		ks.faultingNS = append(ks.faultingNS, dur)
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s.span)
	}
}

func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = int32(i)
	t.inOp = true
	t.begin(spanOp)
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end(spanOp)
	t.inOp = false
}

// writeSpans writes the kept spans as tab-separated lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# first %d spans of lane 0 in the first traced episode; host ns since episode start, virtual ns\n", len(spans))
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns\tvstart_ns\tvend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
			s.id, s.parent, s.op, spanNames[s.kind], s.start, s.end, s.vstart, s.vend)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pagerCalls counts what a traced pager saw, beyond its spans.
type pagerCalls struct {
	requestPages int64
	errors       int64
}

// tracedPager is a pure pass-through core.Pager that records a span
// around each data call. Name, Init and Terminate forward unchanged.
type tracedPager struct {
	core.Pager
	tr             *tracer
	request, write spanKind
	pageSize       int
	calls          *pagerCalls
}

func (p *tracedPager) DataRequest(ctx context.Context, obj *core.Object, offset uint64, length int) ([]byte, error) {
	p.tr.begin(p.request)
	data, err := p.Pager.DataRequest(ctx, obj, offset, length)
	if p.tr.recording() {
		p.calls.requestPages += int64((length + p.pageSize - 1) / p.pageSize)
		if err != nil && !errors.Is(err, core.ErrDataUnavailable) {
			p.calls.errors++
		}
	}
	p.tr.end(p.request)
	return data, err
}

func (p *tracedPager) DataWrite(ctx context.Context, obj *core.Object, offset uint64, data []byte) error {
	p.tr.begin(p.write)
	err := p.Pager.DataWrite(ctx, obj, offset, data)
	if err != nil && p.tr.recording() {
		p.calls.errors++
	}
	p.tr.end(p.write)
	return err
}

// tracePager wraps p so its data calls record request/write spans. The
// pagers the workloads wrap (the disk swap pager and the compressed tier)
// implement none of the optional interfaces core type-asserts, such as
// core.LockingPager, so the wrapper hides none.
func tracePager(p core.Pager, tr *tracer, request, write spanKind, pageSize int, calls *pagerCalls) core.Pager {
	return &tracedPager{Pager: p, tr: tr, request: request, write: write, pageSize: pageSize, calls: calls}
}
