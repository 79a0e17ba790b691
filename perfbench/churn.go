package main

import (
	"fmt"
	"time"

	"machvm/internal/core"
	"machvm/internal/pager"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

// server-churn: the server world's request pattern, driven one request at
// a time so each can be timed. Four tenants each own an app image file
// and a long-lived base task; every op is one short-lived request task.
const (
	churnTenants      = 4
	churnImagePages   = 16
	churnAnonPages    = 8
	churnWorkPages    = 12 // most private pages a request allocates
	churnMinWork      = 4  // fewest
	churnTouches      = 32
	churnTouchBytes   = 64  // bytes each exec text and COW read checks
	churnTouchMax     = 512 // longest private-memory touch
	churnPageoutEvery = 8
	churnOps          = 4000
	// churnDiskMB holds the swap that the shadow-chain leak accumulates
	// over a whole episode (see the workload rationale).
	churnDiskMB = 128
)

type churnTouch struct {
	at    uint32 // byte offset into the request's private memory
	len   uint16
	write bool
	key   uint64
}

// churnPlan is the seeded input of one episode.
type churnPlan struct {
	tenant     []uint8      // tenant request n is for
	parentPage []uint8      // anon page the base task rewrites during request n
	parentKey  []uint64     // the pattern it writes there
	workPages  []uint8      // private pages request n allocates
	touches    []churnTouch // churnTouches per request
	anonKey    [churnTenants][churnAnonPages]uint64
	imageKey   [churnTenants]uint64
}

func newChurnPlan(seed uint64, ops int, pageSz uint64) *churnPlan {
	r := newRNG(seed, 1)
	p := &churnPlan{
		tenant:     make([]uint8, ops),
		parentPage: make([]uint8, ops),
		parentKey:  make([]uint64, ops),
		workPages:  make([]uint8, ops),
		touches:    make([]churnTouch, ops*churnTouches),
	}
	for t := range p.anonKey {
		p.imageKey[t] = r.next()
		for j := range p.anonKey[t] {
			p.anonKey[t][j] = r.next()
		}
	}
	for n := 0; n < ops; n++ {
		p.tenant[n] = uint8(r.intn(churnTenants))
		p.parentPage[n] = uint8(r.intn(churnAnonPages))
		p.parentKey[n] = r.next()
		work := churnMinWork + r.intn(churnWorkPages-churnMinWork+1)
		p.workPages[n] = uint8(work)
		size := uint64(work) * pageSz
		for j := 0; j < churnTouches; j++ {
			at := uint64(r.intn(int(size/8))) * 8
			n8 := uint64(1 + r.intn(churnTouchMax/8))
			p.touches[n*churnTouches+j] = churnTouch{
				at:    uint32(at),
				len:   uint16(min(n8*8, size-at)),
				write: r.next()&1 == 1,
				key:   r.next(),
			}
		}
	}
	return p
}

type churnTenant struct {
	base   *task.Task
	baseTh *task.Thread
	anon   vmtypes.VA
	anonK  [churnAnonPages]uint64 // current pattern of each anon page
	image  string
	imageK uint64
}

func buildChurn(c buildConfig) (*episode, error) {
	ops := c.ops
	if ops == 0 {
		ops = churnOps
	}
	start := time.Now()
	w, err := workload.BuildMachWorld(workload.ArchVAX8650,
		workload.NewConfig(workload.WithDiskMB(churnDiskMB)))
	if err != nil {
		return nil, err
	}
	k, m := w.Kernel, w.Machine
	cpu := m.CPU(0)
	pageSz := k.PageSize()
	planStart := time.Now()
	plan := newChurnPlan(c.seed, ops, pageSz)
	planNS := time.Since(planStart).Nanoseconds()
	ep := &episode{w: w}
	ep.vnow = func() int64 { m.FlushAllCharges(); return m.Clock.Now() }
	ln := &lane{ops: ops}
	ep.lanes = []*lane{ln}
	if c.traced {
		ln.tr = newTracer(start, ep.vnow, &k.Stats().Faults)
	}
	var swap core.Pager = pager.NewSwapPager(w.FS)
	if c.traced {
		swap = tracePager(swap, ln.tr, spanPagerRequest, spanPagerWrite, int(pageSz), &ep.pager)
	}
	k.SetSwapPager(swap)

	// Boot the tenants: image file, base task with dirty anonymous
	// memory, and the image warmed into the object cache by one mapping
	// that is then dropped.
	page := make([]byte, pageSz)
	img := make([]byte, churnImagePages*pageSz)
	tenants := make([]*churnTenant, churnTenants)
	for i := range tenants {
		tt := &churnTenant{image: fmt.Sprintf("t%d/app", i), imageK: plan.imageKey[i], anonK: plan.anonKey[i]}
		for j := 0; j < churnImagePages; j++ {
			fillWords(img[uint64(j)*pageSz:uint64(j+1)*pageSz], tt.imageK+uint64(j))
		}
		if err := w.CreateFile(tt.image, img); err != nil {
			return nil, err
		}
		tt.base = task.New(k, fmt.Sprintf("tenant%d", i))
		tt.baseTh = tt.base.SpawnThread(cpu)
		if tt.anon, err = tt.base.Map.Allocate(0, churnAnonPages*pageSz, true); err != nil {
			return nil, err
		}
		for j, key := range tt.anonK {
			fillWords(page, key)
			if err := tt.baseTh.Write(tt.anon+vmtypes.VA(uint64(j)*pageSz), page); err != nil {
				return nil, err
			}
		}
		va, obj, err := mapImage(w, tt.base, tt.image)
		if err != nil {
			return nil, err
		}
		for off := uint64(0); off < obj.Size(); off += pageSz {
			if err := tt.baseTh.Read(va+vmtypes.VA(off), page[:churnTouchBytes]); err != nil {
				return nil, err
			}
		}
		if err := tt.base.Map.Deallocate(va, obj.Size()); err != nil {
			return nil, err
		}
		tenants[i] = tt
	}
	ep.setupNS = time.Since(start).Nanoseconds() - planNS

	o := c.oracle
	got := make([]byte, churnTouchMax)
	want := make([]byte, churnTouchBytes)
	work := make([]byte, churnWorkPages*pageSz) // model of the request's private memory
	ln.op = func(n int, tr *tracer) error {
		tt := tenants[plan.tenant[n]]
		pg := uint64(plan.parentPage[n])
		pageVA := tt.anon + vmtypes.VA(pg*pageSz)

		// fork(2), then the base task keeps serving: its write to a page
		// the child shares pushes a COW shadow.
		tr.begin(spanTaskFork)
		child := tt.base.Fork("req")
		th := child.SpawnThread(cpu)
		tr.end(spanTaskFork)
		fail := func(err error) error {
			child.Destroy()
			return err
		}
		preFork := tt.anonK[pg]
		fillWords(page, plan.parentKey[n])
		tr.begin(spanAccess)
		err := tt.baseTh.Write(pageVA, page)
		tr.end(spanAccess)
		if err != nil {
			return fail(err)
		}
		tt.anonK[pg] = plan.parentKey[n]

		// The child still sees the page as it was at the fork.
		tr.begin(spanAccess)
		err = th.Read(pageVA, got[:churnTouchBytes])
		tr.end(spanAccess)
		if err != nil {
			return fail(err)
		}
		fillWords(want, preFork)
		o.check(got[:churnTouchBytes], want)

		// exec(2): map the app image through the object cache and run
		// through every other page of its text.
		tr.begin(spanObjectLookup)
		obj, err := w.FileObject(tt.image)
		tr.end(spanObjectLookup)
		if err != nil {
			return fail(err)
		}
		tr.begin(spanMapAllocate)
		text, err := child.Map.AllocateWithObject(0, obj.Size(), true, obj, 0,
			vmtypes.ProtRead|vmtypes.ProtExecute, vmtypes.ProtAll, vmtypes.InheritCopy, false)
		tr.end(spanMapAllocate)
		if err != nil {
			k.ReleaseObjectRef(obj)
			return fail(err)
		}
		for j := uint64(0); j < churnImagePages; j += 2 {
			tr.begin(spanAccess)
			err = th.Read(text+vmtypes.VA(j*pageSz), got[:churnTouchBytes])
			tr.end(spanAccess)
			if err != nil {
				return fail(err)
			}
			fillWords(want, tt.imageK+j)
			o.check(got[:churnTouchBytes], want)
		}

		// Private working memory: fresh zero-fill pages, seeded touches.
		size := uint64(plan.workPages[n]) * pageSz
		tr.begin(spanMapAllocate)
		wva, err := child.Map.Allocate(0, size, true)
		tr.end(spanMapAllocate)
		if err != nil {
			return fail(err)
		}
		clear(work[:size])
		for _, t := range plan.touches[n*churnTouches : (n+1)*churnTouches] {
			buf, model := got[:t.len], work[t.at:t.at+uint32(t.len)]
			tr.begin(spanAccess)
			if t.write {
				fillWords(buf, t.key)
				err = th.Write(wva+vmtypes.VA(t.at), buf)
				copy(model, buf)
			} else {
				err = th.Read(wva+vmtypes.VA(t.at), buf)
			}
			tr.end(spanAccess)
			if err != nil {
				return fail(err)
			}
			if !t.write {
				o.check(buf, model)
			}
		}
		tr.begin(spanMapDeallocate)
		err = child.Map.Deallocate(wva, size)
		tr.end(spanMapDeallocate)
		if err != nil {
			return fail(err)
		}

		// exit(2).
		tr.begin(spanTaskDestroy)
		child.Destroy()
		tr.end(spanTaskDestroy)

		if n%churnPageoutEvery == churnPageoutEvery-1 {
			tr.begin(spanPageoutScan)
			k.PageoutScan()
			tr.end(spanPageoutScan)
		}
		return nil
	}

	// Every base page must hold the last pattern written to it.
	ep.verify = func() error {
		for _, tt := range tenants {
			for j, key := range tt.anonK {
				if err := tt.baseTh.Read(tt.anon+vmtypes.VA(uint64(j)*pageSz), page); err != nil {
					return err
				}
				full := make([]byte, pageSz)
				fillWords(full, key)
				o.check(page, full)
			}
		}
		return nil
	}
	return ep, nil
}

// mapImage maps a tenant's app image read-only into t, through the
// object cache.
func mapImage(w *workload.MachWorld, t *task.Task, image string) (vmtypes.VA, *core.Object, error) {
	obj, err := w.FileObject(image)
	if err != nil {
		return 0, nil, err
	}
	va, err := t.Map.AllocateWithObject(0, obj.Size(), true, obj, 0,
		vmtypes.ProtRead|vmtypes.ProtExecute, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	if err != nil {
		w.Kernel.ReleaseObjectRef(obj)
		return 0, nil, err
	}
	return va, obj, nil
}
