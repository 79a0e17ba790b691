package main

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
)

// oracle checks every byte the benchmark reads against the model it keeps
// of what memory must hold. Lanes share one oracle, so its counters
// are atomic.
type oracle struct {
	checkedBytes atomic.Uint64
	mismatches   atomic.Uint64
	// corrupt, when set, alters a buffer after the read returns and before
	// it is checked. It stands in for a kernel that returned wrong bytes,
	// so a test can prove that the check catches one.
	corrupt func(got []byte)
}

// check compares a read against its expected contents and reports
// whether they match.
func (o *oracle) check(got, want []byte) bool {
	if o.corrupt != nil {
		o.corrupt(got)
	}
	o.checkedBytes.Add(uint64(len(got)))
	if bytes.Equal(got, want) {
		return true
	}
	o.mismatches.Add(1)
	return false
}

// checkZero checks that a read returned only zero bytes.
func (o *oracle) checkZero(got []byte) bool {
	if o.corrupt != nil {
		o.corrupt(got)
	}
	o.checkedBytes.Add(uint64(len(got)))
	for _, b := range got {
		if b != 0 {
			o.mismatches.Add(1)
			return false
		}
	}
	return true
}

// rng is splitmix64: small, fast and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fillWords fills b (a multiple of 8 bytes long) with the pattern named
// by key: distinct keys give distinct contents in every word.
func fillWords(b []byte, key uint64) {
	w := key | 1
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], w)
		w += 0x9E3779B97F4A7C15
	}
}
