package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host this benchmark runs on is a VM sharing its CPUs, caches and
// memory with other tenants, and its speed drifts by more than twofold
// between periods of minutes. A median over the passes of one run cannot
// remove a drift that lasts longer than the run, so every pass is bracketed
// by a fixed reference job that uses no repository code, run right before
// the pass and right after it. The timed end-to-end metrics are reported in
// reference seconds: host seconds divided by the run's median reference
// job time, times refNominal.

// refNominal is the reference job time that a reference second stands
// for: a pass reported as 5 reference seconds took as long as 50 reference
// jobs in the same run. It is close to the job's time on the 2-vCPU Intel
// Xeon VM the benchmark was defined on, so reference seconds read roughly
// like host seconds there.
const refNominal = 0.035 // seconds

// refChases are the chase tables: one that fits a core's private cache, one
// the size of a shared last-level cache slice, and one well above any
// last-level cache. A pass's data spans all three, and neighbours on the
// host crowd each level differently.
var refChases = []struct{ words, steps int }{
	{64 << 10, 800_000},  // 256 KiB
	{512 << 10, 150_000}, // 2 MiB
	{4 << 20, 50_000},    // 16 MiB
}

const (
	refCPUIters   = 4_000_000
	refFaultBytes = 4 << 20 // fresh anonymous memory touched page by page
	// refReps reference jobs run before and after every pass; the run's
	// median over all of them sets its host speed.
	refReps = 3
)

// refState keeps the reference job's chase tables between calls so each
// call does the same work.
type refState struct {
	chases [][]uint32 // each one cycle through every slot (Sattolo's algorithm)
	sink   atomic.Uint64
}

func newRefState() *refState {
	r := &refState{}
	x := uint64(0x9e3779b97f4a7c15)
	for _, c := range refChases {
		t := make([]uint32, c.words)
		for i := range t {
			t[i] = uint32(i)
		}
		for i := len(t) - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			t[i], t[j] = t[j], t[i]
		}
		r.chases = append(r.chases, t)
	}
	return r
}

// refTimes is one reference job's time, in total and by kind of work.
type refTimes struct {
	total, chase, cpu, fault time.Duration
}

// run does the reference job once on each of par goroutines at the same
// time, matching the number of goroutines a workload keeps busy, so the
// job meets the same contention for the host's CPUs as the pass. It
// returns the copies' mean times.
func (r *refState) run(par int) refTimes {
	var mu sync.Mutex
	var sum refTimes
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := r.job(i)
			mu.Lock()
			sum.total += t.total
			sum.chase += t.chase
			sum.cpu += t.cpu
			sum.fault += t.fault
			mu.Unlock()
		}()
	}
	wg.Wait()
	n := time.Duration(par)
	return refTimes{total: sum.total / n, chase: sum.chase / n, cpu: sum.cpu / n, fault: sum.fault / n}
}

// job is one copy of the reference job; copy n starts its chases at
// different slots from the other copies. It mixes the kinds of work a pass
// does: dependent loads from each level of the host's memory, dependent
// integer arithmetic, and page faults on fresh memory,
// which a pass takes as its heap grows. It allocates nothing on the Go
// heap, so its time does not depend on how much heap the program keeps.
func (r *refState) job(n int) refTimes {
	t0 := time.Now()
	var p uint32
	for k, t := range r.chases {
		p = uint32(n) * uint32(len(t)/2)
		for range refChases[k].steps {
			p = t[p]
		}
	}
	t1 := time.Now()
	x := uint64(p) | 1
	for i := 0; i < refCPUIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	t2 := time.Now()
	x += touchFresh()
	t3 := time.Now()
	r.sink.Add(x)
	return refTimes{total: t3.Sub(t0), chase: t1.Sub(t0), cpu: t2.Sub(t1), fault: t3.Sub(t2)}
}

// touchFresh maps refFaultBytes of fresh anonymous memory, writes one byte
// per 4 KiB page so each page faults in, and unmaps it. Where the system
// cannot map memory it does nothing.
func touchFresh() uint64 {
	b, err := syscall.Mmap(-1, 0, refFaultBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0
	}
	_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE) // one fault per small page
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	n := uint64(b[len(b)-4096])
	_ = syscall.Munmap(b)
	return n
}
