// Package ns32082 implements the machine-dependent pmap module for the
// National Semiconductor NS32082 MMU used by both the Encore MultiMax and
// the Sequent Balance — the multiprocessors Mach ran on.
//
// The chip posed several problems unrelated to multiprocessing (§5.1):
// only 16 megabytes of virtual memory may be addressed per page table,
// only 32 megabytes of physical memory may be addressed, and a chip bug
// causes read-modify-write faults to always be reported as read faults,
// even though Mach depends on detecting write faults for copy-on-write.
// The workaround reproduced here is the observation that a *reported* read
// fault against a mapping that already permits reading cannot actually be
// a read fault, so it must be serviced as a write.
package ns32082

import (
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the NS32082 hardware page size.
	HWPageSize = 512
	// l2Entries is the number of PTEs per second-level table and
	// l1Entries the number of second-level tables; together they cover
	// exactly the 16MB virtual limit (256 * 128 * 512 bytes).
	l1Entries = 256
	l2Entries = 128
	// MaxUserVA is the 16-megabyte per-page-table virtual limit.
	MaxUserVA = vmtypes.VA(16) << 20
	// MaxPhysBytes is the 32-megabyte physical addressing limit. (The
	// MultiMax later added special hardware to address a full 4GB; the
	// module models the stock chip.)
	MaxPhysBytes = 32 << 20
	// l2TableBytes is the memory footprint of one second-level table.
	l2TableBytes = l2Entries * 4
)

// DefaultCost approximates one NS32032 processor of an Encore MultiMax or
// Sequent Balance (~0.75 MIPS per CPU).
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "NS32082 (MultiMax/Balance)",
		TLBMiss:      600,
		WalkLevel:    1000,
		MemAccess:    450,
		FaultTrap:    hw.Microseconds(200),
		Syscall:      hw.Microseconds(160),
		ZeroPerKB:    hw.Microseconds(170),
		CopyPerKB:    hw.Microseconds(340),
		PTEOp:        hw.Microseconds(3),
		MapEntryOp:   hw.Microseconds(45),
		TLBFlushPage: hw.Microseconds(3),
		TLBFlushAll:  hw.Microseconds(30),
		IPI:          hw.Microseconds(90), // the buses were built for IPIs
		ContextLoad:  hw.Microseconds(50),
		TaskCreate:   hw.Milliseconds(20),
		MsgOp:        hw.Microseconds(320),
		DiskLatency:  hw.Milliseconds(28),
		DiskPerKB:    hw.Microseconds(1500),
	}
}

// Module is the NS32082 machine-dependent module.
type Module struct {
	pmap.ModuleBase
}

// New creates an NS32082 pmap module for the machine. Physical frames
// beyond the 32MB limit exist but are unusable: MaxFrames reports the cap
// and the machine-independent layer must not hand them out.
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	if m.Mem.PageSize() != HWPageSize {
		panic("ns32082: machine must use 512-byte hardware pages")
	}
	mod := &Module{}
	mod.InitBase("NS32082", m, strategy, MaxUserVA, MaxPhysBytes/HWPageSize)
	return mod
}

// ReportFault models the chip bug: a write (read-modify-write) access that
// faults is reported as a read fault.
func (mod *Module) ReportFault(real vmtypes.Prot) vmtypes.Prot {
	if real.Allows(vmtypes.ProtWrite) {
		return vmtypes.ProtRead
	}
	return real
}

// CorrectFaultAccess is the machine-dependent workaround: a reported read
// fault against a mapping that already allows reads must really have been
// a write, so service it as one. Translation faults (no mapping) cannot be
// disambiguated; they are serviced as reported, and if the access was
// actually a write the subsequent protection fault is corrected here.
func (mod *Module) CorrectFaultAccess(reported, mappingProt vmtypes.Prot) vmtypes.Prot {
	if reported == vmtypes.ProtRead && mappingProt.Allows(vmtypes.ProtRead) {
		return vmtypes.ProtWrite
	}
	return reported
}

// geometry: a block is one second-level table, zeroed table memory like
// a VAX page-table page. The NS32082 has no large mappings, so the table
// never promotes.
var geometry = pmap.TableGeometry{
	PageSize:     HWPageSize,
	BlockPTEs:    l2Entries,
	BlockBytes:   l2TableBytes,
	ChargeCreate: func(m *hw.Machine) { m.ChargeKB(m.Cost.ZeroPerKB, l2TableBytes) },
}

// Create makes a new two-level page table (pmap_create).
func (mod *Module) Create() pmap.Map {
	nm := &nsMap{mod: mod}
	nm.InitCore()
	nm.pt.Init(&mod.ModuleBase, &geometry, nm, &nm.MapCore)
	return nm
}

type nsMap struct {
	pmap.MapCore
	mod *Module
	pt  pmap.Table
}

// Enter establishes one hardware mapping (pmap_enter).
func (m *nsMap) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	if int(pfn) >= m.mod.MaxFrames() {
		panic("ns32082: physical frame beyond the 32MB addressing limit")
	}
	m.pt.Enter(va, pfn, prot, wired)
}

// Remove invalidates mappings in [start, end) (pmap_remove).
func (m *nsMap) Remove(start, end vmtypes.VA) { m.pt.Remove(start, end) }

// Protect reduces protection on [start, end) (pmap_protect).
func (m *nsMap) Protect(start, end vmtypes.VA, prot vmtypes.Prot) { m.pt.Protect(start, end, prot) }

// Walk performs the two-level hardware table walk.
func (m *nsMap) Walk(va vmtypes.VA) (vmtypes.PFN, vmtypes.Prot, bool) { return m.pt.Walk(va, 2, 2) }

// Extract returns the frame mapped at va (pmap_extract).
func (m *nsMap) Extract(va vmtypes.VA) (vmtypes.PFN, bool) { return m.pt.Extract(va) }

// Access reports whether va is mapped (pmap_access).
func (m *nsMap) Access(va vmtypes.VA) bool {
	_, ok := m.pt.Extract(va)
	return ok
}

// Activate loads the map's page-table base on a CPU.
func (m *nsMap) Activate(cpu *hw.CPU) {
	m.mod.Machine().Charge(m.mod.Machine().Cost.ContextLoad)
	m.ActivateOn(cpu)
}

// Deactivate unloads the map; the MMU's small translation cache does not
// survive a context switch.
func (m *nsMap) Deactivate(cpu *hw.CPU) {
	m.DeactivateOn(cpu)
	m.mod.Machine().Charge(m.mod.Machine().Cost.TLBFlushAll)
	cpu.TLB.FlushSpace(m.Space())
}

// Collect throws away non-wired mappings and empty second-level tables.
func (m *nsMap) Collect() {
	m.mod.Stats().Collects.Add(1)
	m.pt.DropUnwired()
}

// Destroy drops a reference and frees the tables when none remain.
func (m *nsMap) Destroy() {
	if m.Release() {
		m.pt.DropAll()
	}
}

// ResidentCount returns the number of hardware mappings held.
func (m *nsMap) ResidentCount() int { return m.pt.Resident() }

// CheckSuperInvariants runs the table's invariant walker. The NS32082
// never promotes, so it also checks that no table is marked super.
func (m *nsMap) CheckSuperInvariants() error { return m.pt.CheckInvariants() }
