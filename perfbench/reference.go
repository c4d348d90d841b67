package main

// The machine is shared, and its speed drifts by up to a factor of two
// for minutes at a time as other tenants load the cores it runs on. CPU
// time leaves out the time the benchmark was not running, but not the
// time it ran slowly. So the benchmark runs short slices of a fixed
// reference kernel in among the program's work, on the same goroutine,
// and times them on the same clock: the kernel's speed, measured over
// the same seconds as the program, is the machine's speed at that time.
// Host times are scaled by it to a machine where the kernel runs
// refNominal steps per CPU-second.

const (
	// refNominal is about the kernel's speed on a quiet 2-vCPU x86-64
	// VM. It only sets the scale of the reported numbers.
	refNominal = 40e6
	// refSliceSteps is the timed part of one slice, about 13 µs.
	refSliceSteps = 500
	// refSliceMax bounds a plausible timed part, in seconds.
	refSliceMax = 1e-3
	// refEvery is how many requests run between two slices.
	refEvery = 32
	// refAround is how many slices time the machine before and after
	// each set-up.
	refAround = 8
)

// refKernel is the reference work: random reads and writes in a 32 KiB
// table, lookups in a prefilled map, short copies and data-dependent
// loads, chosen by a pseudo-random branch. That is the mix a
// simulator's hot loop is made of. Of the table sizes tried (32 KiB to
// 4 MiB, before slices had a warm-up), the smallest gave the kernel a
// speed that moved most nearly in step with the program's. Its working set fits the core's own caches,
// and a slice touches all of it before the timed part, so the program's
// use of the caches does not change the kernel's speed. It allocates
// nothing, so the collector never charges the program's garbage to it.
type refKernel struct {
	table []uint64
	index map[uint32]uint32
	buf   [2][512]byte
	x     uint64
}

const (
	refTableMask = 1<<12 - 1
	refIndexSize = 512
)

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint64, refTableMask+1), index: make(map[uint32]uint32, refIndexSize), x: 88172645463325252}
	for i := range k.table {
		k.table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := uint32(0); i < refIndexSize; i++ {
		k.index[i] = i * 2654435761
	}
	return k
}

// warm touches the kernel's whole working set.
func (k *refKernel) warm() {
	var s uint64
	for _, v := range k.table {
		s += v
	}
	for i := uint32(0); i < refIndexSize; i++ {
		s += uint64(k.index[i])
	}
	k.buf[0][0] += byte(s)
	copy(k.buf[1][:], k.buf[0][:])
}

func (k *refKernel) run(steps int) {
	h := k.x
	for i := 0; i < steps; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		switch h & 3 {
		case 0:
			k.table[h>>40&refTableMask] += h
		case 1:
			h += uint64(k.index[uint32(h>>32)%refIndexSize])
		case 2:
			copy(k.buf[0][h>>56:], k.buf[1][:128])
		case 3:
			h ^= k.table[(h^k.table[h>>44&refTableMask])&refTableMask]
		}
	}
	k.x = h
}

// refClock accumulates the reference slices run so far.
type refClock struct {
	k      *refKernel
	cpu    float64 // CPU seconds spent in slices
	kernel float64 // CPU seconds spent in the slices' timed parts
	steps  float64
}

// ref is the process's reference clock. Every slice runs on the
// goroutine that steps the program, so it needs no lock.
var ref = refClock{k: newRefKernel()}

// slice warms the kernel and times one slice of it on the thread's own
// CPU clock. The process clock would not do: while the CPU profiler
// runs, it advances in scheduler ticks, and reading the thread clock
// folds the time since the last tick into it. A slice whose goroutine
// moved to another thread reads a difference of two threads' clocks,
// and is dropped.
func (r *refClock) slice() {
	t0 := threadCPUSeconds()
	r.k.warm()
	t1 := threadCPUSeconds()
	r.k.run(refSliceSteps)
	t2 := threadCPUSeconds()
	if t2 > t1 && t1 >= t0 && t2-t0 < refSliceMax {
		r.cpu += t2 - t0
		r.kernel += t2 - t1
		r.steps += refSliceSteps
	}
}

// slowdown is how much slower than refNominal the machine ran the
// slices since mark (a copy of r taken earlier).
func (r *refClock) slowdown(mark refClock) float64 {
	if r.steps == mark.steps {
		return 1
	}
	return refNominal * (r.kernel - mark.kernel) / (r.steps - mark.steps)
}
