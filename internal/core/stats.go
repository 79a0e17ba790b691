package core

import (
	"sync/atomic"
	"unsafe"
)

// counters is the one declaration of the machine-independent VM
// counters, the basis of vm_statistics (Table 2-1). Every field has type
// T: Stats instantiates the list with atomics the kernel bumps,
// StatsSnapshot with plain values, and Statistics embeds a snapshot, so
// a counter added here reaches all three (and every trace and tool that
// prints them) without further edits.
type counters[T any] struct {
	Faults            T // total vm_fault calls
	ZeroFillFaults    T // faults satisfied by zero fill
	CowFaults         T // faults that copied a page
	ReactivateHits    T // faults satisfied by a resident page
	Pageins           T // pages filled from a pager
	Pageouts          T // pages written to a pager
	PageoutsWanted    T // times free memory dipped below min
	PageoutWakes      T // demand wakeups delivered to the daemon
	PageoutScanJoins  T // scan requests that waited on an in-flight scan
	PagesAllocated    T
	PagesFreed        T
	MagazineHits      T // page grabs satisfied by the shard's own magazine
	DepotRefills      T // batched magazine refills from the depot
	DepotDrains       T // batched magazine drains back to the depot
	MagazineSteals    T // exhaustion-path grabs from a sibling magazine
	BusyWaits         T // faults that blocked on a busy page
	AllocRaces        T // allocations that lost an install race
	ShardRetries      T // shard locks retried after identity change
	PageoutSkips      T // stale pageout candidates skipped on revalidation
	ObjectsCreated    T
	ObjectsTerminated T
	ShadowsCreated    T
	ShadowsCollapsed  T
	CacheRevives      T
	MapHintHits       T
	MapHintMisses     T // lookups that fell through to the index
	MapLookups        T
	FaultRetries      T // faults restarted after a map version change
	ShareMapsMade     T
	PagerTimeouts     T // pager conversations that exhausted the deadline
	PagerRetries      T // pager calls reissued after a retryable error
	PagerErrors       T // pager calls that returned an error (excl. unavailable)
	PagerFallbacks    T // failures degraded per the object's fallback policy
	PagerFlightJoins  T // faulters that joined an in-flight pager request
	PagerAbandons     T // faulters whose context fired while a request was in flight
	PageoutWriteFails T // DataWrite failures that kept the page dirty and resident
	PagerRoundTrips   T // DataRequest conversations issued (clustered or single)
	ClusterExtras     T // readahead pages installed beyond the faulting page
	PageoutRuns       T // DataWrite conversations issued by the pageout daemon
	PageoutRunPages   T // dirty pages carried by those DataWrites
	SpanPromotions    T // whole-span EnterRange promotions driven by faults

	// Tiered-paging counters. The Ztier* counters are bumped by the
	// compressed swap tier (internal/pager/ztier) when it is wired to this
	// kernel's Stats; the Tier* and SwapZeroPages counters by the kernel
	// itself.
	ZtierHits            T // DataRequests served from the compressed pool
	ZtierMisses          T // DataRequests that fell through to the backing tier
	ZtierStoredBytes     T // uncompressed bytes accepted into the pool (cumulative)
	ZtierCompressedBytes T // compressed bytes those stores occupied (cumulative)
	ZtierEvictions       T // blobs written back to the backing tier by the pool
	ZtierBypasses        T // pages routed straight to the backing tier (incompressible or cold)
	TierPromotions       T // auto-tier objects pinned hot by refault pressure
	TierDemotions        T // auto-tier objects demoted cold (eviction stream, no refaults)
	SwapZeroPages        T // all-zero pages the default pager elided to a sentinel
}

// Stats are the live counters, bumped concurrently by the kernel.
type Stats counters[atomic.Uint64]

// Stats returns the kernel's counters.
func (k *Kernel) Stats() *Stats { return &k.stats }

// StatsSnapshot is Stats with every counter captured into a plain field.
type StatsSnapshot counters[uint64]

// numCounters is the length of the counter list. Both instantiations are
// laid out as that many consecutive 8-byte words, so each can be viewed
// as an array; the blank declaration fails to compile if they diverge.
const numCounters = unsafe.Sizeof(StatsSnapshot{}) / unsafe.Sizeof(uint64(0))

var _ = [1]struct{}{}[unsafe.Sizeof(Stats{})-unsafe.Sizeof(StatsSnapshot{})]

// Snapshot captures every counter at once into a plain struct. Use this —
// not a sequence of individual Load calls — whenever more than one counter
// feeds a decision or an assertion: reading live atomics one by one while
// daemons run yields torn cross-counter views (a pagein counted but not
// yet its round trip), which is exactly the flakiness that breaks
// "replayed stats == recorded stats". The snapshot itself is not an atomic
// cut either (Go offers none across 50 counters), but it is taken at one
// point in the code, so quiesced kernels — and record/replay, which only
// snapshots after the event stream is complete — get a stable view.
func (s *Stats) Snapshot() StatsSnapshot {
	var snap StatsSnapshot
	live := (*[numCounters]atomic.Uint64)(unsafe.Pointer(s))
	out := (*[numCounters]uint64)(unsafe.Pointer(&snap))
	for i := range live {
		out[i] = live[i].Load()
	}
	return snap
}

// Statistics is the snapshot returned by vm_statistics (Table 2-1): the
// memory gauges plus every counter.
type Statistics struct {
	PageSize       uint64
	FreeCount      int
	ActiveCount    int
	InactiveCount  int
	WireCount      int
	ObjectCacheLen int
	StatsSnapshot
}

// VMStatistics implements vm_statistics: statistics about the use of
// memory by the system.
func (k *Kernel) VMStatistics() Statistics {
	wired := 0
	for _, p := range k.pages {
		if p.wireCount.Load() > 0 {
			wired++
		}
	}
	return Statistics{
		PageSize:       k.pageSize,
		FreeCount:      k.FreeCount(),
		ActiveCount:    k.ActiveCount(),
		InactiveCount:  k.InactiveCount(),
		WireCount:      wired,
		ObjectCacheLen: k.CachedObjects(),
		StatsSnapshot:  k.stats.Snapshot(),
	}
}
