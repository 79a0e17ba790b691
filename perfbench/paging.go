package main

import (
	"context"
	"encoding/binary"
	"time"

	"machvm/internal/core"
	"machvm/internal/pager"
	"machvm/internal/pager/ztier"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

// paging-mix: one task whose anonymous working set is 1.5x physical
// memory, swapped through the compressed tier in front of the disk swap
// pager. Every op touches a run of consecutive pages.
const (
	pagingMemoryMB = 4
	pagingRunPages = 8
	pagingWriteOne = 4 // one op in pagingWriteOne writes
	pagingOps      = 16000
	// pagingTierBudget is the compressed pool's byte budget: smaller than
	// the compressed overflow, so the disk serves part of every pass.
	pagingTierBudget = 1 << 20
	// pagingTexture is the size of the seeded byte texture page contents
	// are cut from; half of every 32-byte cell is zero, so pages compress
	// to roughly half.
	pagingTexture = 64 << 10
	pagingHeader  = 16
)

type pagingPlan struct {
	start   []uint32
	write   []bool
	texture []byte
}

func newPagingPlan(seed uint64, ops, pages int) *pagingPlan {
	r := newRNG(seed, 2)
	p := &pagingPlan{start: make([]uint32, ops), write: make([]bool, ops), texture: make([]byte, pagingTexture)}
	for i := 0; i < pagingTexture; i += 32 {
		binary.LittleEndian.PutUint64(p.texture[i:], r.next())
		binary.LittleEndian.PutUint64(p.texture[i+8:], r.next())
	}
	for i := range p.start {
		p.start[i] = uint32(r.intn(pages - pagingRunPages + 1))
		p.write[i] = r.intn(pagingWriteOne) == 0
	}
	return p
}

// pageContent writes version v of page pg into b: a header naming both,
// then a window of the texture chosen by both, so a stale or misplaced
// page never matches.
func (p *pagingPlan) pageContent(b []byte, pg int, v uint32) {
	binary.LittleEndian.PutUint64(b, uint64(pg))
	binary.LittleEndian.PutUint64(b[8:], uint64(v))
	n := len(b) - pagingHeader
	at := (pg*7919 + int(v)*104729) % (pagingTexture - n) &^ 7
	copy(b[pagingHeader:], p.texture[at:at+n])
}

func buildPaging(c buildConfig) (*episode, error) {
	ops := c.ops
	if ops == 0 {
		ops = pagingOps
	}
	start := time.Now()
	w, err := workload.BuildMachWorld(workload.ArchVAX8650,
		workload.NewConfig(workload.WithMemoryMB(pagingMemoryMB)))
	if err != nil {
		return nil, err
	}
	k, m := w.Kernel, w.Machine
	cpu := m.CPU(0)
	pageSz := int(k.PageSize())
	pages := k.TotalPages() * 3 / 2
	setupStart := time.Now()
	plan := newPagingPlan(c.seed, ops, pages)
	planNS := time.Since(setupStart).Nanoseconds()

	ep := &episode{w: w}
	ep.vnow = func() int64 { m.FlushAllCharges(); return m.Clock.Now() }
	ln := &lane{ops: ops}
	ep.lanes = []*lane{ln}
	if c.traced {
		ln.tr = newTracer(start, ep.vnow, &k.Stats().Faults)
	}
	// Swap stack: disk swap pager <- compressed tier. The tier's
	// writeback worker is stopped and the benchmark drains the pool itself
	// after every op, so eviction happens at the same points on every run.
	var disk core.Pager = pager.NewSwapPager(w.FS)
	if c.traced {
		disk = tracePager(disk, ln.tr, spanPagerRequest, spanPagerWrite, pageSz, &ep.pager)
	}
	tier := ztier.New(disk, ztier.Config{
		Budget:   pagingTierBudget,
		PageSize: uint64(pageSz),
		Machine:  m,
		Stats:    k.Stats(),
	})
	tier.Close()
	var swap core.Pager = tier
	if c.traced {
		swap = tracePager(swap, ln.tr, spanZtierRequest, spanZtierWrite, pageSz, new(pagerCalls))
	}
	k.SetSwapPager(swap)
	drain := func(tr *tracer) {
		tr.begin(spanZtierDrain)
		tier.Drain(context.Background())
		tr.end(spanZtierDrain)
	}

	t := task.New(k, "mix")
	th := t.SpawnThread(cpu)
	base, err := t.Map.Allocate(0, uint64(pages*pageSz), true)
	if err != nil {
		return nil, err
	}
	version := make([]uint32, pages)
	buf := make([]byte, pagingRunPages*pageSz)
	for pg := 0; pg < pages; pg++ {
		plan.pageContent(buf[:pageSz], pg, 0)
		if err := th.Write(base+vmtypes.VA(pg*pageSz), buf[:pageSz]); err != nil {
			return nil, err
		}
		drain(nil)
	}
	ep.setupNS = time.Since(start).Nanoseconds() - planNS

	o := c.oracle
	want := make([]byte, pageSz)
	ln.op = func(i int, tr *tracer) error {
		first := int(plan.start[i])
		va := base + vmtypes.VA(first*pageSz)
		var err error
		if plan.write[i] {
			for j := 0; j < pagingRunPages; j++ {
				version[first+j]++
				plan.pageContent(buf[j*pageSz:(j+1)*pageSz], first+j, version[first+j])
			}
			tr.begin(spanAccess)
			err = th.Write(va, buf)
			tr.end(spanAccess)
		} else {
			tr.begin(spanAccess)
			err = th.Read(va, buf)
			tr.end(spanAccess)
			if err == nil {
				for j := 0; j < pagingRunPages; j++ {
					checkPage(o, plan, buf[j*pageSz:(j+1)*pageSz], want, first+j, version[first+j])
				}
			}
		}
		drain(tr)
		return err
	}

	// Every page must hold its latest version.
	ep.verify = func() error {
		for pg := 0; pg < pages; pg++ {
			if err := th.Read(base+vmtypes.VA(pg*pageSz), buf[:pageSz]); err != nil {
				return err
			}
			checkPage(o, plan, buf[:pageSz], want, pg, version[pg])
		}
		return nil
	}
	return ep, nil
}

// checkPage builds the expected contents of page pg at version v in want
// and passes the read through the oracle.
func checkPage(o *oracle, plan *pagingPlan, got, want []byte, pg int, v uint32) {
	plan.pageContent(want, pg, v)
	o.check(got, want)
}
