// Package sun3 implements the machine-dependent pmap module for the SUN 3.
//
// The SUN 3 MMU combines segment maps and page maps held in dedicated MMU
// RAM, which makes sparse 256-megabyte address maps reasonably cheap — but
// only 8 contexts exist at any one time. With more than 8 active tasks,
// tasks compete for contexts, and a task whose context is stolen loses its
// loaded translations and refaults them on its next run, "introducing
// additional page faults as on the RT" (§5.1). The machine's other quirk
// is a physical address space with large holes (display memory addressed
// as high physical memory); the hole handling lives in hw.PhysMem and this
// module simply never sees the unpopulated frames, mirroring how the SUN
// port contained the problem entirely within machine-dependent code.
package sun3

import (
	"sync"
	"sync/atomic"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the SUN 3 hardware page size.
	HWPageSize = 8192
	// pagesPerPMEG is the number of page entries in one page-map entry
	// group; a PMEG maps one 128KB segment.
	pagesPerPMEG = 16
	// segmentSize is the span of one segment-map entry.
	segmentSize = HWPageSize * pagesPerPMEG
	// NumContexts is the number of hardware contexts.
	NumContexts = 8
	// MaxUserVA: the SUN 3 manages per-task address maps up to 256
	// megabytes each (§5.1).
	MaxUserVA = vmtypes.VA(256) << 20
	// mmuRAMBytes approximates the fixed MMU RAM: 8 contexts of segment
	// map plus the PMEG array.
	mmuRAMBytes = NumContexts*(int(MaxUserVA/segmentSize))*2 + 256*pagesPerPMEG*4
)

// DefaultCost approximates a SUN 3/160 (16.67 MHz 68020).
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "SUN 3/160",
		TLBMiss:      300,
		WalkLevel:    500,
		MemAccess:    250,
		FaultTrap:    hw.Microseconds(90),
		Syscall:      hw.Microseconds(70),
		ZeroPerKB:    hw.Microseconds(55),
		CopyPerKB:    hw.Microseconds(110),
		PTEOp:        hw.Microseconds(2),
		MapEntryOp:   hw.Microseconds(20),
		TLBFlushPage: hw.Microseconds(2),
		TLBFlushAll:  hw.Microseconds(20),
		IPI:          hw.Microseconds(100),
		ContextLoad:  hw.Microseconds(40),
		TaskCreate:   hw.Milliseconds(55),
		MsgOp:        hw.Microseconds(150),
		DiskLatency:  hw.Milliseconds(4),
		DiskPerKB:    hw.Microseconds(1100),
	}
}

// Module is the SUN 3 machine-dependent module.
type Module struct {
	pmap.ModuleBase

	mu       sync.Mutex
	contexts [NumContexts]*sun3Map
	lruClock uint64
}

// New creates a SUN 3 pmap module for the machine. Declare the display-
// memory hole when building the hw.Machine (see DisplayHole).
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	if m.Mem.PageSize() != HWPageSize {
		panic("sun3: machine must use 8192-byte hardware pages")
	}
	mod := &Module{}
	mod.InitBase("SUN 3", m, strategy, MaxUserVA, 0)
	mod.Stats().AddTableBytes(int64(mmuRAMBytes))
	return mod
}

// DisplayHole returns a frame range describing display memory mapped as
// high physical memory, covering holeFrames frames ending at totalFrames.
func DisplayHole(totalFrames, holeFrames int) hw.FrameRange {
	if holeFrames >= totalFrames {
		holeFrames = totalFrames / 2
	}
	return hw.FrameRange{
		Start: vmtypes.PFN(totalFrames - holeFrames),
		End:   vmtypes.PFN(totalFrames),
	}
}

// geometry: a block is one PMEG, the page table for one 128KB segment.
// PMEGs live in the fixed MMU RAM counted once at New, so loading one
// costs PTE writes rather than table memory. A PMEG whose every entry is
// valid with one uniform protection is "super": the MMU can satisfy the
// translation from the segment probe alone, so Walk on a promoted PMEG
// charges one level instead of two.
var geometry = pmap.TableGeometry{
	PageSize:     HWPageSize,
	BlockPTEs:    pagesPerPMEG,
	Promote:      true,
	ChargeCreate: func(m *hw.Machine) { m.Charge(m.Cost.PTEOp * pagesPerPMEG / 4) },
}

// Create makes a new physical map. It owns no hardware context until it is
// activated or entered into.
func (mod *Module) Create() pmap.Map {
	sm := &sun3Map{mod: mod}
	sm.InitCore()
	sm.pt.Init(&mod.ModuleBase, &geometry, sm, &sm.MapCore)
	return sm
}

type sun3Map struct {
	pmap.MapCore
	mod *Module
	pt  pmap.Table

	// context and lastUsed are guarded by mod.mu; haveContext is
	// atomic because the hot Walk path reads it.
	context     int
	lastUsed    uint64
	haveContext atomic.Bool
}

// ContextSteals returns the module-wide count of stolen contexts.
func (mod *Module) ContextSteals() uint64 { return mod.Stats().ContextSteals.Load() }

// acquireContext gives m a hardware context, stealing the least recently
// used one if all 8 are taken. The victim loses its loaded translations:
// its MMU-RAM segment and page maps are reused, so the machine-independent
// layer must rebuild them by refaulting.
func (mod *Module) acquireContext(m *sun3Map) {
	mod.mu.Lock()
	mod.lruClock++
	m.lastUsed = mod.lruClock
	if m.haveContext.Load() {
		mod.mu.Unlock()
		return
	}
	slot := -1
	var victim *sun3Map
	for i, owner := range mod.contexts {
		if owner == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		// Steal the least recently used context.
		var oldest uint64 = ^uint64(0)
		for i, owner := range mod.contexts {
			if owner.lastUsed < oldest && owner != m {
				oldest = owner.lastUsed
				slot = i
			}
		}
		victim = mod.contexts[slot]
		mod.Stats().ContextSteals.Add(1)
	}
	mod.contexts[slot] = m
	m.context = slot
	m.haveContext.Store(true)
	if victim != nil {
		victim.haveContext.Store(false)
		victim.context = -1
	}
	mod.mu.Unlock()

	if victim != nil {
		// The victim's MMU RAM is reused: every non-wired translation
		// goes. Wired entries survive: Mach keeps a shadow of them and
		// reloads eagerly.
		victim.pt.DropUnwired()
	}
	mod.Machine().Charge(mod.Machine().Cost.ContextLoad)
}

// Enter establishes one hardware mapping, acquiring a context first if
// necessary (hardware state can exist only inside a context's MMU RAM).
func (m *sun3Map) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	m.mod.acquireContext(m)
	m.pt.Enter(va, pfn, prot, wired)
}

// Remove invalidates mappings in [start, end).
func (m *sun3Map) Remove(start, end vmtypes.VA) { m.pt.Remove(start, end) }

// Protect reduces protection on [start, end).
func (m *sun3Map) Protect(start, end vmtypes.VA, prot vmtypes.Prot) { m.pt.Protect(start, end, prot) }

// Walk performs the hardware translation (segment map, then page map; a
// promoted PMEG acts as one segment-level mapping, so the segment probe
// alone resolves it). A map without a context has no loaded translations:
// everything faults until the context is re-acquired.
func (m *sun3Map) Walk(va vmtypes.VA) (vmtypes.PFN, vmtypes.Prot, bool) {
	if !m.haveContext.Load() {
		mod := m.mod
		mod.Stats().Walks.Add(1)
		mod.Machine().Charge(2 * mod.Machine().Cost.WalkLevel)
		mod.Stats().WalkMisses.Add(1)
		return 0, 0, false
	}
	return m.pt.Walk(va, 2, 1)
}

// Extract returns the frame mapped at va (pmap_extract).
func (m *sun3Map) Extract(va vmtypes.VA) (vmtypes.PFN, bool) { return m.pt.Extract(va) }

// Access reports whether va is mapped (pmap_access).
func (m *sun3Map) Access(va vmtypes.VA) bool {
	_, ok := m.Extract(va)
	return ok
}

// Activate makes the map current on a CPU, competing for one of the 8
// contexts.
func (m *sun3Map) Activate(cpu *hw.CPU) {
	m.mod.acquireContext(m)
	m.ActivateOn(cpu)
}

// Deactivate unloads the map from a CPU. The context is retained — that is
// the point of contexts — until another task steals it.
func (m *sun3Map) Deactivate(cpu *hw.CPU) {
	m.DeactivateOn(cpu)
	m.mod.Machine().Charge(m.mod.Machine().Cost.TLBFlushAll)
	cpu.TLB.FlushSpace(m.Space())
}

// Collect discards non-wired hardware state (equivalent to losing the
// context voluntarily).
func (m *sun3Map) Collect() {
	m.mod.Stats().Collects.Add(1)
	m.pt.DropUnwired()
}

// Destroy releases the map, freeing its context.
func (m *sun3Map) Destroy() {
	if !m.Release() {
		return
	}
	m.pt.DropAll()
	mod := m.mod
	mod.mu.Lock()
	if m.haveContext.Load() {
		mod.contexts[m.context] = nil
		m.haveContext.Store(false)
		m.context = -1
	}
	mod.mu.Unlock()
}

// ResidentCount returns the number of loaded hardware mappings.
func (m *sun3Map) ResidentCount() int { return m.pt.Resident() }

// HasContext reports whether the map currently holds a hardware context.
func (m *sun3Map) HasContext() bool { return m.haveContext.Load() }

// EnterRange implements the optional pmap.RangeEnterer: one context
// acquisition and one lock hold per PMEG for a run of consecutive
// mappings, with promotion checked once per touched PMEG.
func (m *sun3Map) EnterRange(va vmtypes.VA, pfns []vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	if len(pfns) > 0 {
		m.mod.acquireContext(m)
	}
	m.pt.EnterRange(va, pfns, prot, wired)
}

// SuperSpan returns the SUN 3 promotion granule: one 128KB segment.
func (m *sun3Map) SuperSpan() uint64 { return m.pt.SuperSpan() }

// SuperActive reports whether the PMEG containing va is promoted.
func (m *sun3Map) SuperActive(va vmtypes.VA) bool { return m.pt.SuperActive(va) }

// SuperCount returns the number of currently promoted PMEGs.
func (m *sun3Map) SuperCount() int { return m.pt.SuperCount() }

// CheckSuperInvariants runs the PMEG table's invariant walker.
func (m *sun3Map) CheckSuperInvariants() error { return m.pt.CheckInvariants() }

var _ pmap.RangeEnterer = (*sun3Map)(nil)
