package main

import (
	"time"

	"machvm/internal/task"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

// fault-storm: two simulated CPUs, one goroutine each, faulting on one
// shared map that is active on both. Every op is one fault call.
const (
	stormCPUs        = 2
	stormSharedPages = 512
	stormZeroPages   = 64 // per-lane region, torn down and rebuilt when full
	stormZeroOne     = 8  // one op in stormZeroOne is a zero-fill touch
	stormWriteOne    = 4  // one resident re-fault in stormWriteOne asks for write
	stormOps         = 250000
	stormTouchBytes  = 8
	stormWindow      = 64 // ops per lane that share one virtual time per op
)

type stormOp struct {
	page uint16 // shared page to re-fault
	kind uint8  // stormRefaultRead, stormRefaultWrite or stormZeroFill
}

const (
	stormRefaultRead = iota
	stormRefaultWrite
	stormZeroFill
)

func newStormPlan(seed uint64, lane, ops int) []stormOp {
	r := newRNG(seed, 3+uint64(lane))
	plan := make([]stormOp, ops)
	for i := range plan {
		switch {
		case r.intn(stormZeroOne) == 0:
			plan[i].kind = stormZeroFill
		case r.intn(stormWriteOne) == 0:
			plan[i].kind = stormRefaultWrite
		}
		plan[i].page = uint16(r.intn(stormSharedPages))
	}
	return plan
}

func buildStorm(c buildConfig) (*episode, error) {
	ops := c.ops
	if ops == 0 {
		ops = stormOps
	}
	plans := make([][]stormOp, stormCPUs)
	for li := range plans {
		plans[li] = newStormPlan(c.seed, li, ops)
	}

	start := time.Now()
	w, err := workload.BuildMachWorld(workload.ArchVAX8650,
		workload.NewConfig(workload.WithCPUs(stormCPUs)))
	if err != nil {
		return nil, err
	}
	k, m := w.Kernel, w.Machine
	pageSz := k.PageSize()
	ep := &episode{w: w, vnow: m.Clock.Now, window: stormWindow}

	t := task.New(k, "storm")
	threads := make([]*task.Thread, stormCPUs)
	for i := range threads {
		threads[i] = t.SpawnThread(m.CPU(i))
	}
	shared, err := t.Map.Allocate(0, stormSharedPages*pageSz, true)
	if err != nil {
		return nil, err
	}
	page := make([]byte, pageSz)
	for pg := uint64(0); pg < stormSharedPages; pg++ {
		fillWords(page, c.seed+pg)
		if err := threads[0].Write(shared+vmtypes.VA(pg*pageSz), page); err != nil {
			return nil, err
		}
		if err := threads[1].Touch(shared+vmtypes.VA(pg*pageSz), false); err != nil {
			return nil, err
		}
	}

	o := c.oracle
	for li := 0; li < stormCPUs; li++ {
		cpu := m.CPU(li)
		plan := plans[li]
		region, err := t.Map.Allocate(0, stormZeroPages*pageSz, true)
		if err != nil {
			return nil, err
		}
		next := 0
		got := make([]byte, stormTouchBytes)
		ln := &lane{ops: ops}
		if c.traced {
			ln.tr = newTracer(start, ep.vnow, &k.Stats().Faults)
		}
		ln.op = func(i int, tr *tracer) error {
			p := plan[i]
			if p.kind != stormZeroFill {
				access := vmtypes.ProtRead
				if p.kind == stormRefaultWrite {
					access = vmtypes.ProtWrite
				}
				tr.begin(spanFault)
				err := k.Fault(t.Map, shared+vmtypes.VA(uint64(p.page)*pageSz), access)
				tr.end(spanFault)
				return err
			}
			// Zero fill: the next untouched page of this lane's region.
			tr.begin(spanTouch)
			err := k.AccessBytes(cpu, t.Map, region+vmtypes.VA(uint64(next)*pageSz), got, false)
			tr.end(spanTouch)
			if err != nil {
				return err
			}
			o.checkZero(got)
			if next++; next < stormZeroPages {
				return nil
			}
			// The region is full: tear it down — a shootdown to the other
			// CPU, where the map is active — and allocate a fresh one.
			next = 0
			tr.begin(spanMapDeallocate)
			err = t.Map.Deallocate(region, stormZeroPages*pageSz)
			tr.end(spanMapDeallocate)
			if err != nil {
				return err
			}
			tr.begin(spanMapAllocate)
			region, err = t.Map.Allocate(0, stormZeroPages*pageSz, true)
			tr.end(spanMapAllocate)
			return err
		}
		ep.lanes = append(ep.lanes, ln)
	}
	ep.setupNS = time.Since(start).Nanoseconds()

	// Re-faults never change data: every shared page still holds what
	// set-up wrote.
	ep.verify = func() error {
		want := make([]byte, pageSz)
		for pg := uint64(0); pg < stormSharedPages; pg++ {
			if err := threads[0].Read(shared+vmtypes.VA(pg*pageSz), page); err != nil {
				return err
			}
			fillWords(want, c.seed+pg)
			o.check(page, want)
		}
		return nil
	}
	return ep, nil
}
