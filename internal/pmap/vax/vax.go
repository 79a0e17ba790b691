// Package vax implements the machine-dependent pmap module for the VAX
// family — the architecture Mach was first implemented on.
//
// A VAX pmap "corresponds to a VAX page table" (§3.6). The hardware wants
// linear page tables, and a full two-gigabyte user space would need eight
// megabytes of them (§5.1); VMS paged the tables, traditional UNIX just
// limited process addressibility. Mach's solution, reproduced here, is to
// keep page tables in physical memory but construct only those parts
// needed to map what is actually in use, creating and destroying page-table
// pages as necessary to conserve space or improve runtime. That necessity,
// plus the small 512-byte VAX page, is what made the VAX's machine-
// dependent module the most complex of the ports.
package vax

import (
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the VAX hardware page ("pagelet") size.
	HWPageSize = 512
	// pteBytes is the size of one VAX page-table entry.
	pteBytes = 4
	// ptesPerChunk is the number of PTEs in one page-table page; Mach
	// allocates and frees page tables at this granularity.
	ptesPerChunk = HWPageSize / pteBytes
	// MaxUserVA is the VAX user address-space limit: the architecture
	// allows at most 2 gigabytes of user address space (§2.1).
	MaxUserVA = vmtypes.VA(2) << 30
)

// DefaultCost is a cost model plausible for a MicroVAX II-class machine
// (~0.9 VUPS). See DESIGN.md §2 for why only relative shape matters.
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "uVAX II",
		TLBMiss:      400,
		WalkLevel:    1200,
		MemAccess:    400,
		FaultTrap:    hw.Microseconds(180),
		Syscall:      hw.Microseconds(150),
		ZeroPerKB:    hw.Microseconds(160),
		CopyPerKB:    hw.Microseconds(320),
		PTEOp:        hw.Microseconds(3),
		MapEntryOp:   hw.Microseconds(40),
		TLBFlushPage: hw.Microseconds(2),
		TLBFlushAll:  hw.Microseconds(25),
		IPI:          hw.Microseconds(120),
		ContextLoad:  hw.Microseconds(60),
		TaskCreate:   hw.Milliseconds(55),
		MsgOp:        hw.Microseconds(300),
		DiskLatency:  hw.Milliseconds(28),
		DiskPerKB:    hw.Microseconds(1600),
	}
}

// Cost8200 approximates a VAX 8200 (used for the paper's file-read rows).
func Cost8200() hw.CostModel {
	c := DefaultCost()
	c.Name = "VAX 8200"
	c.FaultTrap = hw.Microseconds(120)
	c.Syscall = hw.Microseconds(100)
	c.ZeroPerKB = hw.Microseconds(90)
	c.CopyPerKB = hw.Microseconds(180)
	c.TaskCreate = hw.Milliseconds(12)
	c.DiskLatency = hw.Milliseconds(2)
	c.DiskPerKB = hw.Microseconds(1200)
	return c
}

// Cost8650 approximates a VAX 8650 (~6 VUPS; used for Table 7-2).
func Cost8650() hw.CostModel {
	c := DefaultCost()
	c.Name = "VAX 8650"
	c.TLBMiss = 100
	c.WalkLevel = 300
	c.MemAccess = 100
	c.FaultTrap = hw.Microseconds(45)
	c.Syscall = hw.Microseconds(35)
	c.ZeroPerKB = hw.Microseconds(25)
	c.CopyPerKB = hw.Microseconds(50)
	c.PTEOp = hw.Microseconds(1)
	c.MapEntryOp = hw.Microseconds(10)
	c.TaskCreate = hw.Milliseconds(4)
	c.MsgOp = hw.Microseconds(80)
	c.DiskLatency = hw.Milliseconds(5)
	c.DiskPerKB = hw.Microseconds(900)
	return c
}

// Module is the VAX machine-dependent module.
type Module struct {
	pmap.ModuleBase
}

// New creates a VAX pmap module for the machine.
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	if m.Mem.PageSize() != HWPageSize {
		panic("vax: machine must use 512-byte hardware pages")
	}
	mod := &Module{}
	mod.InitBase("VAX", m, strategy, MaxUserVA, 0)
	return mod
}

// geometry: a block is one page-table page, the granule at which Mach
// creates and destroys VAX page tables; constructing one costs a zeroed
// page of table memory. A page-table page whose every PTE is valid with
// one uniform protection is "super": the closest thing 1987 VAX hardware
// has to a superpage, a page-table page the module can treat as one large
// mapping when batching range operations.
var geometry = pmap.TableGeometry{
	PageSize:     HWPageSize,
	BlockPTEs:    ptesPerChunk,
	BlockBytes:   HWPageSize,
	Promote:      true,
	ChargeCreate: func(m *hw.Machine) { m.ChargeKB(m.Cost.ZeroPerKB, HWPageSize) },
}

// Create makes a new, empty VAX physical map (pmap_create). The page
// table starts entirely unconstructed.
func (mod *Module) Create() pmap.Map {
	vm := &vaxMap{mod: mod}
	vm.InitCore()
	vm.pt.Init(&mod.ModuleBase, &geometry, vm, &vm.MapCore)
	return vm
}

type vaxMap struct {
	pmap.MapCore
	mod *Module
	pt  pmap.Table
}

// Enter establishes one hardware mapping (pmap_enter).
func (m *vaxMap) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	m.pt.Enter(va, pfn, prot, wired)
}

// Remove invalidates mappings in [start, end) (pmap_remove).
func (m *vaxMap) Remove(start, end vmtypes.VA) { m.pt.Remove(start, end) }

// Protect reduces protection on [start, end) (pmap_protect).
func (m *vaxMap) Protect(start, end vmtypes.VA, prot vmtypes.Prot) { m.pt.Protect(start, end, prot) }

// Walk is the hardware translation: one extra memory reference through the
// (simulated) linear page table.
func (m *vaxMap) Walk(va vmtypes.VA) (vmtypes.PFN, vmtypes.Prot, bool) { return m.pt.Walk(va, 1, 1) }

// Extract returns the frame mapped at va (pmap_extract).
func (m *vaxMap) Extract(va vmtypes.VA) (vmtypes.PFN, bool) { return m.pt.Extract(va) }

// Access reports whether va is mapped (pmap_access).
func (m *vaxMap) Access(va vmtypes.VA) bool {
	_, ok := m.pt.Extract(va)
	return ok
}

// Activate loads this map on a CPU (pmap_activate): set P0BR/P0LR.
func (m *vaxMap) Activate(cpu *hw.CPU) {
	m.mod.Machine().Charge(m.mod.Machine().Cost.ContextLoad)
	m.ActivateOn(cpu)
}

// Deactivate unloads this map (pmap_deactivate). The VAX TLB is untagged,
// so a context switch flushes the process's translations.
func (m *vaxMap) Deactivate(cpu *hw.CPU) {
	m.DeactivateOn(cpu)
	m.mod.Machine().Charge(m.mod.Machine().Cost.TLBFlushAll)
	cpu.TLB.FlushSpace(m.Space())
}

// Collect throws away all non-wired mappings and their page-table pages to
// reclaim table space — legal because everything can be reconstructed at
// fault time.
func (m *vaxMap) Collect() {
	m.mod.Stats().Collects.Add(1)
	m.pt.DropUnwired()
}

// Destroy drops a reference and frees the map when none remain
// (pmap_destroy).
func (m *vaxMap) Destroy() {
	if m.Release() {
		m.pt.DropAll()
	}
}

// ResidentCount returns the number of hardware mappings held.
func (m *vaxMap) ResidentCount() int { return m.pt.Resident() }

// CopyMappings implements the optional pmap_copy of Table 3-4: duplicate
// the valid mappings of [srcAddr, srcAddr+length) into dst, write-
// protected. On the VAX this is a cheap PTE walk, so a fork can prewarm
// the child's page table and spare it a refault per resident page.
func (m *vaxMap) CopyMappings(dst pmap.Map, dstAddr vmtypes.VA, length uint64, srcAddr vmtypes.VA) {
	d, ok := dst.(*vaxMap)
	if !ok || d.mod != m.mod {
		return
	}
	end := srcAddr + vmtypes.VA(length)
	for va := srcAddr; ; va += HWPageSize {
		next, pfn, prot, ok := m.pt.NextValid(va, end)
		if !ok {
			return
		}
		va = next
		d.Enter(va+dstAddr-srcAddr, pfn, prot.Intersect(vmtypes.ProtRead|vmtypes.ProtExecute), false)
	}
}

// Pageable implements the optional pmap_pageable of Table 3-4. The VAX
// module keeps all page-table pages resident, so it has no work to do —
// exactly the "need not perform any hardware function" case.
func (m *vaxMap) Pageable(start, end vmtypes.VA, pageable bool) {}

// EnterRange implements the optional pmap.RangeEnterer: establish a run of
// consecutive hardware mappings with one lock hold, one promotion check,
// and one PV pass per page-table page rather than per PTE.
func (m *vaxMap) EnterRange(va vmtypes.VA, pfns []vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	m.pt.EnterRange(va, pfns, prot, wired)
}

// SuperSpan returns the VAX promotion granule: one page-table page's span.
func (m *vaxMap) SuperSpan() uint64 { return m.pt.SuperSpan() }

// SuperActive reports whether the page-table page containing va is
// promoted.
func (m *vaxMap) SuperActive(va vmtypes.VA) bool { return m.pt.SuperActive(va) }

// SuperCount returns the number of currently promoted page-table pages.
func (m *vaxMap) SuperCount() int { return m.pt.SuperCount() }

// CheckSuperInvariants runs the page table's invariant walker.
func (m *vaxMap) CheckSuperInvariants() error { return m.pt.CheckInvariants() }

var (
	_ pmap.Copier       = (*vaxMap)(nil)
	_ pmap.Pageabler    = (*vaxMap)(nil)
	_ pmap.RangeEnterer = (*vaxMap)(nil)
)
