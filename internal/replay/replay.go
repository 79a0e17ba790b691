// Package replay re-executes a recorded trace against a freshly booted
// kernel and verifies that the new kernel reproduces the recorded behavior
// bit for bit: the same event stream (input ops with the same results,
// observations at the same virtual-clock times) and the same final clock
// and stats snapshot.
//
// Replay executes only input ops (Kind.IsOp). Observations in the recorded
// stream are what the fresh kernel must regenerate on its own; any
// difference — an extra fault, a pager round trip at a different time, a
// different reclaim decision — is a determinism violation and is reported,
// not repaired.
package replay

import (
	"fmt"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/trace"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

// Result is the outcome of one replay.
type Result struct {
	// Replayed is the trace re-recorded during replay.
	Replayed *trace.Trace
	// EventDiff describes the first event-stream divergence ("" if the
	// streams are bit-identical).
	EventDiff string
	// ClockDiff and StatsDiff describe end-state divergences ("" if none).
	ClockDiff string
	StatsDiff string
}

// OK reports whether the replay was bit-identical to the recording.
func (r *Result) OK() bool {
	return r.EventDiff == "" && r.ClockDiff == "" && r.StatsDiff == ""
}

// Divergence summarizes every difference found ("" when OK).
func (r *Result) Divergence() string {
	out := ""
	for _, d := range []string{r.EventDiff, r.ClockDiff, r.StatsDiff} {
		if d == "" {
			continue
		}
		if out != "" {
			out += "\n"
		}
		out += d
	}
	return out
}

// Run boots a fresh world from the trace header, re-executes the trace's
// input ops against it, and compares what the fresh kernel did against
// what the recording says it must do. A returned error means the replay
// harness itself failed (unknown op, unbound ID — a corrupt or truncated
// trace); divergences of a well-formed replay are reported in the Result.
func Run(tr *trace.Trace) (*Result, error) {
	h := tr.Header
	// Zero header fields (old or hand-written traces) get the same
	// defaults the recorder's world resolved.
	w, err := workload.BuildMachWorld(workload.Arch(h.Arch), workload.Config{
		MemoryMB:        h.MemoryMB,
		CPUs:            h.CPUs,
		DiskMB:          h.DiskMB,
		ObjectCacheSize: h.ObjectCache,
		Strategy:        pmap.Strategy(h.Strategy),
	})
	if err != nil {
		return nil, fmt.Errorf("replay: booting world: %w", err)
	}
	w.StartTrace()

	st := &state{
		w:    w,
		k:    w.Kernel,
		maps: make(map[uint64]*core.Map),
		objs: make(map[uint64]*core.Object),
	}
	for i, e := range tr.Events {
		if !e.Kind.IsOp() {
			continue
		}
		if err := st.exec(e); err != nil {
			w.Kernel.SetTracer(nil)
			return nil, fmt.Errorf("replay: event %d (%s): %w", i, e.Kind, err)
		}
	}

	rep := w.StopTrace()
	res := &Result{Replayed: rep}
	res.EventDiff = trace.Diff(tr.Events, rep.Events)
	if rep.Clock != tr.Clock {
		res.ClockDiff = fmt.Sprintf("virtual clock diverged: recorded=%dns replayed=%dns", tr.Clock, rep.Clock)
	}
	if rep.Stats != tr.Stats {
		res.StatsDiff = fmt.Sprintf("stats snapshot diverged:\n  recorded: %s\n  replayed: %s", tr.Stats, rep.Stats)
	}
	return res, nil
}

// state binds the recorded map/object IDs to the live structures the
// replay run creates. If determinism holds, every live structure is
// assigned the exact ID the recording used; the event diff catches any
// drift even before an unbound-ID error would.
type state struct {
	w    *workload.MachWorld
	k    *core.Kernel
	maps map[uint64]*core.Map
	objs map[uint64]*core.Object
}

func (st *state) mapFor(id uint64) (*core.Map, error) {
	m, ok := st.maps[id]
	if !ok {
		return nil, fmt.Errorf("unbound map id %d", id)
	}
	return m, nil
}

func (st *state) objFor(id uint64) (*core.Object, error) {
	o, ok := st.objs[id]
	if !ok {
		return nil, fmt.Errorf("unbound object id %d", id)
	}
	return o, nil
}

func (st *state) cpuFor(idx int64) (*hw.CPU, error) {
	if idx < 0 {
		return nil, nil
	}
	if int(idx) >= st.w.Machine.NumCPUs() {
		return nil, fmt.Errorf("cpu %d out of range", idx)
	}
	return st.w.Machine.CPU(int(idx)), nil
}

// exec re-issues one input op. Op errors are deliberately not surfaced:
// the recorded event carries the error the original run saw, the replayed
// event carries this run's, and the event diff compares them.
func (st *state) exec(e trace.Event) error {
	switch e.Kind {
	case trace.OpNewMap:
		st.maps[e.Ret] = st.k.NewMap()
	case trace.OpDestroyMap:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		m.Destroy()
	case trace.OpActivate, trace.OpDeactivate:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		cpu, err := st.cpuFor(e.CPU)
		if err != nil || cpu == nil {
			return fmt.Errorf("activate needs a cpu: %v", err)
		}
		if e.Kind == trace.OpActivate {
			m.Activate(cpu)
		} else {
			m.Deactivate(cpu)
		}
	case trace.OpAllocate:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_, _ = m.Allocate(vmtypes.VA(e.Addr), e.Size, e.Flag)
	case trace.OpAllocObject:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		obj, err := st.objFor(e.Obj)
		if err != nil {
			return err
		}
		prot := vmtypes.Prot(e.Arg & 0xff)
		maxProt := vmtypes.Prot((e.Arg >> 8) & 0xff)
		inherit := vmtypes.Inherit((e.Arg >> 16) & 0xff)
		cow := (e.Arg>>24)&1 != 0
		_, _ = m.AllocateWithObject(vmtypes.VA(e.Addr), e.Size, e.Flag, obj, e.Addr2, prot, maxProt, inherit, cow)
	case trace.OpDeallocate:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = m.Deallocate(vmtypes.VA(e.Addr), e.Size)
	case trace.OpProtect:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = m.Protect(vmtypes.VA(e.Addr), e.Size, e.Flag, vmtypes.Prot(e.Arg))
	case trace.OpInherit:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = m.SetInherit(vmtypes.VA(e.Addr), e.Size, vmtypes.Inherit(e.Arg))
	case trace.OpWire:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = m.Wire(vmtypes.VA(e.Addr), e.Size)
	case trace.OpUnwire:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = m.Unwire(vmtypes.VA(e.Addr), e.Size)
	case trace.OpCopy:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = m.Copy(vmtypes.VA(e.Addr), e.Size, vmtypes.VA(e.Addr2))
	case trace.OpCopyTo:
		src, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		dst, err := st.mapFor(e.Map2)
		if err != nil {
			return err
		}
		_, _ = src.CopyTo(dst, vmtypes.VA(e.Addr), e.Size, vmtypes.VA(e.Addr2), e.Flag)
	case trace.OpFork:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		st.maps[e.Ret] = m.Fork()
	case trace.OpFault:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = st.k.Fault(m, vmtypes.VA(e.Addr), vmtypes.Prot(e.Arg))
	case trace.OpAccess:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		cpu, err := st.cpuFor(e.CPU)
		if err != nil {
			return err
		}
		var buf []byte
		if e.Flag {
			buf = e.Data.Bytes()
			if uint64(len(buf)) != e.Size {
				return fmt.Errorf("write payload %d bytes, size says %d", len(buf), e.Size)
			}
		} else {
			buf = make([]byte, e.Size)
		}
		_ = st.k.AccessBytes(cpu, m, vmtypes.VA(e.Addr), buf, e.Flag)
	case trace.OpVMRead:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_, _ = st.k.VMRead(m, vmtypes.VA(e.Addr), e.Size)
	case trace.OpVMWrite:
		m, err := st.mapFor(e.Map)
		if err != nil {
			return err
		}
		_ = st.k.VMWrite(m, vmtypes.VA(e.Addr), e.Data.Bytes())
	case trace.OpScan:
		_ = st.k.PageoutScan()
	case trace.OpCharge:
		st.w.Machine.Charge(e.Arg)
	case trace.OpFileCreate:
		_ = st.w.CreateFile(e.Name, e.Data.Bytes())
	case trace.OpFileObject:
		obj, err := st.w.FileObject(e.Name)
		if err == nil && obj != nil {
			st.objs[e.Ret] = obj
		}
	case trace.OpReleaseObject:
		obj, err := st.objFor(e.Obj)
		if err != nil {
			return err
		}
		st.k.ReleaseObjectRef(obj)
	default:
		return fmt.Errorf("unknown input op %v", e.Kind)
	}
	return nil
}
