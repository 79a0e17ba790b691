package pmap

import (
	"fmt"
	"math/bits"
	"sync"

	"machvm/internal/hw"
	"machvm/internal/vmtypes"
)

// TableGeometry describes the hardware behind a Table: what one block of
// PTEs is on the machine and what constructing one costs. A block is a
// VAX page-table page, a SUN 3 PMEG or an NS32082 second-level table.
type TableGeometry struct {
	// PageSize is the hardware page size and BlockPTEs the number of
	// PTEs in one block; both are powers of two.
	PageSize  uint64
	BlockPTEs int
	// BlockBytes is the table memory one block occupies, counted in
	// ModuleStats.TableBytes while the block exists. It is 0 when the
	// blocks live in fixed MMU RAM that the module counts once.
	BlockBytes int64
	// Promote tracks superpages: a block whose every PTE is valid with
	// one uniform protection is "super", and the table reports it
	// through the RangeEnterer methods and Walk's level charge.
	Promote bool
	// ChargeCreate charges the virtual cost of constructing one block.
	ChargeCreate func(m *hw.Machine)
}

// Table is the sparse table of fixed-size PTE blocks shared by the VAX,
// SUN 3 and NS32082 modules. Blocks are constructed on first use and
// freed when their last mapping goes, so only the parts of the address
// space in use cost table memory (§5.1). The table does everything those
// machines do alike: Enter/EnterRange/Remove/Protect with their PV and
// shootdown bookkeeping, the lookups behind Walk and Extract, dropping
// unwired or all mappings, resident and superpage accounting. Each module
// holds one per map as a named field and keeps only what its hardware
// does differently.
type Table struct {
	geo   *TableGeometry
	base  *ModuleBase
	owner Map
	core  *MapCore

	pageShift  uint
	blockShift uint
	mask       uint64 // BlockPTEs-1: a vpn's index within its block

	mu         sync.Mutex
	blocks     map[uint64]*block
	resident   int
	superCount int
	bytes      int64 // this table's share of ModuleStats.TableBytes

	// pool recycles empty blocks within this map. Safe because Remove
	// and drop zero each PTE before used can reach zero, so a pooled
	// block is indistinguishable from a fresh one.
	pool []*block
}

type pte struct {
	pfn   vmtypes.PFN
	prot  vmtypes.Prot
	valid bool
	wired bool
}

type block struct {
	ptes  []pte
	used  int
	super bool
}

const (
	// maxPool bounds the per-map free list of blocks; primePool blocks
	// are put there at Init, so a map's first blocks come off the free
	// list and allocation counts stay flat from the first fault (six
	// 64KB VAX page-table pages cover a 256KB region plus straddle).
	maxPool   = 8
	primePool = 6
)

// Init sets the table up, empty, for owner, whose MapCore is core.
func (t *Table) Init(base *ModuleBase, geo *TableGeometry, owner Map, core *MapCore) {
	t.geo, t.base, t.owner, t.core = geo, base, owner, core
	t.pageShift = uint(bits.TrailingZeros64(geo.PageSize))
	t.blockShift = uint(bits.TrailingZeros(uint(geo.BlockPTEs)))
	t.mask = uint64(geo.BlockPTEs) - 1
	t.blocks = make(map[uint64]*block, maxPool)
	t.pool = make([]*block, primePool, maxPool)
	for i := range t.pool {
		t.pool[i] = &block{ptes: make([]pte, geo.BlockPTEs)}
	}
}

func (t *Table) vaOf(vpn uint64) vmtypes.VA { return vmtypes.VA(vpn << t.pageShift) }

// vpns returns the hardware pages [first, last) that cover [start, end),
// with end clamped to the user address-space limit.
func (t *Table) vpns(start, end vmtypes.VA) (first, last uint64) {
	end = min(end, t.base.maxVA)
	return uint64(start) >> t.pageShift, (uint64(end) + t.geo.PageSize - 1) >> t.pageShift
}

// blockLocked returns the block holding vpn, constructing it if create
// is set. Called with t.mu held.
func (t *Table) blockLocked(vpn uint64, create bool) *block {
	idx := vpn >> t.blockShift
	b := t.blocks[idx]
	if b == nil && create {
		if n := len(t.pool); n > 0 {
			b = t.pool[n-1]
			t.pool[n-1] = nil
			t.pool = t.pool[:n-1]
		} else {
			b = &block{ptes: make([]pte, t.geo.BlockPTEs)}
		}
		t.blocks[idx] = b
		// Charged even for a recycled block: in the virtual cost model
		// the hardware still builds a table block, and only the host-
		// side Go allocation is being avoided.
		t.geo.ChargeCreate(t.base.machine)
		t.accountLocked(t.geo.BlockBytes)
	}
	return b
}

// freeLocked deletes an empty, fully zeroed block, pooling it for the
// next create if recycle is set. Called with t.mu held.
func (t *Table) freeLocked(idx uint64, b *block, recycle bool) {
	delete(t.blocks, idx)
	t.accountLocked(-t.geo.BlockBytes)
	if recycle && len(t.pool) < maxPool {
		t.pool = append(t.pool, b)
	}
}

func (t *Table) accountLocked(delta int64) {
	if delta != 0 {
		t.bytes += delta
		t.base.stats.AddTableBytes(delta)
	}
}

// updateSuperLocked re-derives a block's superpage status after PTE
// changes: super exactly when every PTE is valid with one uniform
// protection. O(1) unless the block is full. Called with t.mu held.
func (t *Table) updateSuperLocked(b *block) {
	if !t.geo.Promote {
		return
	}
	want := b.used == len(b.ptes)
	if want {
		p0 := b.ptes[0].prot
		for i := 1; i < len(b.ptes); i++ {
			if b.ptes[i].prot != p0 {
				want = false
				break
			}
		}
	}
	t.setSuperLocked(b, want)
}

// setSuperLocked promotes or demotes a block, counting the change.
// Called with t.mu held.
func (t *Table) setSuperLocked(b *block, super bool) {
	if b.super == super {
		return
	}
	b.super = super
	if super {
		t.superCount++
		t.base.stats.Promotions.Add(1)
	} else {
		t.superCount--
		t.base.stats.Demotions.Add(1)
	}
}

// checkVA panics if last, the last byte an operation maps, lies beyond
// the user address-space limit.
func (t *Table) checkVA(last vmtypes.VA) {
	if last >= t.base.maxVA {
		panic(fmt.Sprintf("%s: virtual address beyond the %d MB user limit", t.base.name, t.base.maxVA>>20))
	}
}

// Enter establishes one hardware mapping (pmap_enter). Re-entering an
// identical mapping (a refault on a resident page) charges its PTE op
// and nothing else: the PTE and every TLB copy of it are already correct,
// so no shootdown and no PV update is needed.
func (t *Table) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	t.checkVA(va)
	mb := t.base
	vpn := uint64(va) >> t.pageShift
	mb.stats.Enters.Add(1)
	mb.machine.Charge(mb.machine.Cost.PTEOp)

	want := pte{pfn: pfn, prot: prot, valid: true, wired: wired}
	t.mu.Lock()
	b := t.blockLocked(vpn, true)
	e := &b.ptes[vpn&t.mask]
	if *e == want {
		t.mu.Unlock()
		return
	}
	old := *e
	if !old.valid {
		b.used++
		t.resident++
	}
	*e = want
	t.updateSuperLocked(b)
	t.mu.Unlock()

	if old.valid {
		if old.pfn != pfn {
			mb.db.RemovePV(old.pfn, t.owner, t.vaOf(vpn))
		}
		mb.shooter.InvalidatePage(t.core.space, vpn, t.core.ActiveCPUs(), true)
	}
	mb.db.AddPV(pfn, t.owner, t.vaOf(vpn))
}

// EnterRange establishes a run of consecutive mappings with one lock
// hold, one promotion check and one PV pass per block rather than per
// PTE (the pmap.RangeEnterer method).
func (t *Table) EnterRange(va vmtypes.VA, pfns []vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	if len(pfns) == 0 {
		return
	}
	if uint64(va)&(t.geo.PageSize-1) != 0 {
		panic(t.base.name + ": EnterRange address not hardware-page aligned")
	}
	t.checkVA(va + vmtypes.VA(len(pfns))<<t.pageShift - 1)
	mb := t.base
	mb.stats.RangeEnters.Add(1)
	mb.stats.Enters.Add(uint64(len(pfns)))

	type replacement struct {
		vpn uint64
		pfn vmtypes.PFN
	}
	var replaced []replacement
	mach, pteOp := mb.machine, mb.machine.Cost.PTEOp
	startVPN := uint64(va) >> t.pageShift
	for i := 0; i < len(pfns); {
		vpn := startVPN + uint64(i)
		t.mu.Lock()
		b := t.blockLocked(vpn, true)
		ptes := b.ptes[vpn&t.mask:]
		if rest := len(pfns) - i; len(ptes) > rest {
			ptes = ptes[:rest]
		}
		for j := range ptes {
			mach.Charge(pteOp)
			e := &ptes[j]
			want := pte{pfn: pfns[i+j], prot: prot, valid: true, wired: wired}
			if *e == want {
				continue
			}
			if e.valid {
				replaced = append(replaced, replacement{vpn: vpn + uint64(j), pfn: e.pfn})
			} else {
				b.used++
				t.resident++
			}
			*e = want
		}
		i += len(ptes)
		t.updateSuperLocked(b)
		t.mu.Unlock()
	}
	for _, r := range replaced {
		if r.pfn != pfns[r.vpn-startVPN] {
			mb.db.RemovePV(r.pfn, t.owner, t.vaOf(r.vpn))
		}
		mb.shooter.InvalidatePage(t.core.space, r.vpn, t.core.ActiveCPUs(), true)
	}
	for i, pfn := range pfns {
		mb.db.AddPV(pfn, t.owner, t.vaOf(startVPN+uint64(i)))
	}
}

// Remove invalidates mappings in [start, end) (pmap_remove), demoting a
// block it leaves partial and freeing one it leaves empty.
func (t *Table) Remove(start, end vmtypes.VA) {
	mb := t.base
	mb.stats.Removes.Add(1)
	for vpn, last := t.vpns(start, end); vpn < last; vpn++ {
		t.mu.Lock()
		b := t.blockLocked(vpn, false)
		if b == nil {
			// Skip the rest of an unconstructed block.
			t.mu.Unlock()
			vpn |= t.mask
			continue
		}
		e := &b.ptes[vpn&t.mask]
		if !e.valid {
			t.mu.Unlock()
			continue
		}
		pfn := e.pfn
		*e = pte{}
		b.used--
		t.resident--
		t.setSuperLocked(b, false)
		if b.used == 0 {
			t.freeLocked(vpn>>t.blockShift, b, true)
		}
		t.mu.Unlock()

		mb.machine.Charge(mb.machine.Cost.PTEOp)
		mb.db.RemovePV(pfn, t.owner, t.vaOf(vpn))
		mb.shooter.InvalidatePage(t.core.space, vpn, t.core.ActiveCPUs(), true)
	}
}

// Protect reduces protection on [start, end) (pmap_protect).
func (t *Table) Protect(start, end vmtypes.VA, prot vmtypes.Prot) {
	mb := t.base
	mb.stats.Protects.Add(1)
	for vpn, last := t.vpns(start, end); vpn < last; vpn++ {
		t.mu.Lock()
		b := t.blockLocked(vpn, false)
		if b == nil {
			t.mu.Unlock()
			vpn |= t.mask
			continue
		}
		e := &b.ptes[vpn&t.mask]
		np := e.prot.Intersect(prot)
		changed := e.valid && np != e.prot
		if changed {
			e.prot = np
			t.updateSuperLocked(b)
		}
		t.mu.Unlock()
		if changed {
			mb.machine.Charge(mb.machine.Cost.PTEOp)
			mb.shooter.InvalidatePage(t.core.space, vpn, t.core.ActiveCPUs(), false)
		}
	}
}

// lookup returns the PTE for va (zero if none) and whether its block is
// promoted.
func (t *Table) lookup(va vmtypes.VA) (e pte, super bool) {
	if va >= t.base.maxVA {
		return pte{}, false
	}
	vpn := uint64(va) >> t.pageShift
	t.mu.Lock()
	if b := t.blocks[vpn>>t.blockShift]; b != nil {
		e, super = b.ptes[vpn&t.mask], b.super
	}
	t.mu.Unlock()
	return e, super
}

// Walk is the hardware translation through the table. It charges levels
// table levels, or superLevels when va's block is promoted, and counts
// the walk and any miss.
func (t *Table) Walk(va vmtypes.VA, levels, superLevels int64) (vmtypes.PFN, vmtypes.Prot, bool) {
	mb := t.base
	mb.stats.Walks.Add(1)
	e, super := t.lookup(va)
	if super {
		levels = superLevels
	}
	mb.machine.Charge(levels * mb.machine.Cost.WalkLevel)
	if !e.valid {
		mb.stats.WalkMisses.Add(1)
		return 0, 0, false
	}
	return e.pfn, e.prot, true
}

// Extract returns the frame mapped at va (pmap_extract).
func (t *Table) Extract(va vmtypes.VA) (vmtypes.PFN, bool) {
	e, _ := t.lookup(va)
	return e.pfn, e.valid
}

// NextValid returns the first valid mapping in [va, end), skipping
// unconstructed blocks.
func (t *Table) NextValid(va, end vmtypes.VA) (vmtypes.VA, vmtypes.PFN, vmtypes.Prot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for vpn, last := t.vpns(va, end); vpn < last; vpn++ {
		b := t.blockLocked(vpn, false)
		if b == nil {
			vpn |= t.mask
			continue
		}
		if e := b.ptes[vpn&t.mask]; e.valid {
			return t.vaOf(vpn), e.pfn, e.prot, true
		}
	}
	return 0, 0, 0, false
}

// DropUnwired throws away every non-wired mapping and each block left
// empty — legal because everything can be reconstructed at fault time.
// It backs Collect and the SUN 3's loss of a context.
func (t *Table) DropUnwired() { t.drop(false) }

// DropAll throws away every mapping and block (pmap_destroy).
func (t *Table) DropAll() { t.drop(true) }

func (t *Table) drop(wiredToo bool) {
	type victim struct {
		vpn uint64
		pfn vmtypes.PFN
	}
	var victims []victim
	t.mu.Lock()
	for idx, b := range t.blocks {
		for i := range b.ptes {
			e := &b.ptes[i]
			if e.valid && (wiredToo || !e.wired) {
				victims = append(victims, victim{vpn: idx<<t.blockShift | uint64(i), pfn: e.pfn})
				*e = pte{}
				b.used--
				t.resident--
			}
		}
		if b.used != len(b.ptes) {
			t.setSuperLocked(b, false)
		}
		if b.used == 0 {
			// Destroy does not feed the pool: the map dies with it.
			t.freeLocked(idx, b, !wiredToo)
		}
	}
	t.mu.Unlock()
	for _, v := range victims {
		t.base.db.RemovePV(v.pfn, t.owner, t.vaOf(v.vpn))
	}
	t.base.shooter.InvalidateSpace(t.core.space, t.core.ActiveCPUs())
}

// Resident returns the number of valid mappings held.
func (t *Table) Resident() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resident
}

// SuperSpan returns the promotion granule: one block's span.
func (t *Table) SuperSpan() uint64 { return t.geo.PageSize << t.blockShift }

// SuperActive reports whether the block containing va is promoted.
func (t *Table) SuperActive(va vmtypes.VA) bool {
	_, super := t.lookup(va)
	return super
}

// SuperCount returns the number of currently promoted blocks.
func (t *Table) SuperCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.superCount
}

// CheckInvariants verifies the table's bookkeeping: each block's used
// matches its count of valid PTEs, resident is the sum of used, a block
// is marked super exactly when the table promotes and the block is fully
// mapped with uniform protection, superCount matches the marked blocks,
// and the table memory counted for this map is one BlockBytes per block.
func (t *Table) CheckInvariants() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	name := t.base.name
	supers, resident := 0, 0
	for idx, b := range t.blocks {
		used := 0
		mixed := false
		for i := range b.ptes {
			if !b.ptes[i].valid {
				continue
			}
			if b.ptes[i].prot != b.ptes[0].prot {
				mixed = true // matters only when full, so ptes[0] is valid
			}
			used++
		}
		if used != b.used {
			return fmt.Errorf("%s: block %d records used=%d but holds %d valid PTEs", name, idx, b.used, used)
		}
		uniform := t.geo.Promote && used == len(b.ptes) && !mixed
		if b.super != uniform {
			return fmt.Errorf("%s: block %d super=%v but promotable-full-and-uniform=%v", name, idx, b.super, uniform)
		}
		if b.super {
			supers++
		}
		resident += used
	}
	if supers != t.superCount {
		return fmt.Errorf("%s: superCount=%d but %d blocks are marked super", name, t.superCount, supers)
	}
	if resident != t.resident {
		return fmt.Errorf("%s: resident=%d but blocks hold %d valid PTEs", name, t.resident, resident)
	}
	if want := int64(len(t.blocks)) * t.geo.BlockBytes; t.bytes != want {
		return fmt.Errorf("%s: table bytes=%d but %d blocks need %d", name, t.bytes, len(t.blocks), want)
	}
	return nil
}
