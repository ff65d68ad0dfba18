package main

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed reference. On a shared host the machine's other tenants
// change how fast this VM runs, by up to a factor of two, for fractions of
// a second to whole runs, and no statistic taken over a run's own
// executions removes that. So while a run measures, one sampler per
// processor runs refKernel every sampleEvery and reads how fast that
// processor ran it, and each timed execution is reported as it would take
// on a host that runs the kernel in refNominal: its measured seconds times
// the processors' mean speed while it ran.
//
// The kernel is a third integer arithmetic with unpredictable branches and
// two thirds streaming over a 256 KiB buffer held in the core's L2 cache,
// flipping and popcounting words as the simulator's bitsets do; an untimed
// pass first brings the buffer back into L2, so the timing does not depend
// on what the program left there. Kernels that stream from the shared L3
// cache, chase pointers through it or run arithmetic alone tracked the
// workloads' execution times less closely; README.md has the numbers. The
// kernel calls nothing in the repository and reads nothing the program
// wrote, so a change to the program cannot move it; only the host does.
// Its buffer is mapped outside the Go heap, so the heap metrics do not see
// it.
const (
	// refWords sizes the kernel's buffer: 256 KiB.
	refWords = 1 << 15
	// refALUSteps sizes the arithmetic part: about a third of the kernel.
	refALUSteps = 5500
	// refNominal is the kernel's median CPU time on one processor of an
	// idle 2-vCPU VM on a 2.1 GHz Xeon, the reference host.
	refNominal = 110 * time.Microsecond
	// sampleEvery spaces a processor's samples: the kernel, with its
	// untimed pass, takes about 1% of each processor.
	sampleEvery = 20 * time.Millisecond
	// speedWindow is the shortest stretch of samples an execution's speed
	// is averaged over; a shorter execution takes the samples around it.
	speedWindow = 500 * time.Millisecond
)

// refKernel runs refALUSteps of xorshift with a data-dependent branch, then
// makes two passes over buf, flipping bits in every word and counting the
// bits set.
func refKernel(buf []uint64, x uint32) uint64 {
	var acc uint32
	for range refALUSteps {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if x&1 == 0 {
			acc += x
		} else {
			acc ^= x >> 1
		}
	}
	return uint64(acc) + streamPass(buf, 1) + streamPass(buf, 2)
}

// streamPass flips bits in every word of buf and counts the bits set.
func streamPass(buf []uint64, r int) uint64 {
	var c int
	for i := range buf {
		buf[i] ^= uint64(i + r)
		c += bits.OnesCount64(buf[i])
	}
	return uint64(c)
}

// speedSample is one run of refKernel on a processor: when it ended and
// the CPU time it took.
type speedSample struct {
	at  time.Time
	cpu time.Duration
}

// speedSampler samples the speed of every processor the process may run
// on until stopped.
type speedSampler struct {
	mu      sync.Mutex
	samples [][]speedSample // per processor, in time order
	sink    uint64          // the kernels' results, kept so none is optimised away
	quit    chan struct{}
	wg      sync.WaitGroup
}

// startSpeedSampler starts one sampling goroutine per processor, each
// locked to an OS thread bound to its processor. A sample's speed is
// refNominal over the thread CPU time the kernel took. Thread CPU time
// leaves out any wait for the processor, so a sample reads how fast the
// processor runs, not how busy the benchmark keeps it.
func startSpeedSampler() (*speedSampler, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	s := &speedSampler{samples: make([][]speedSample, len(cpus)), quit: make(chan struct{})}
	ready := make(chan error, len(cpus))
	for i, cpu := range cpus {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if err := bindThread(cpu); err != nil {
				ready <- err
				return
			}
			mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				ready <- fmt.Errorf("mapping the reference buffer: %w", err)
				return
			}
			defer syscall.Munmap(mem)
			buf := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords)
			var sink uint64
			ready <- nil
			tick := time.NewTicker(sampleEvery)
			defer tick.Stop()
			for {
				sink += streamPass(buf, 0)
				c0 := threadCPU()
				sink += refKernel(buf, uint32(sink)|1)
				x := speedSample{at: time.Now(), cpu: threadCPU() - c0}
				s.mu.Lock()
				s.samples[i] = append(s.samples[i], x)
				s.mu.Unlock()
				select {
				case <-s.quit:
					s.mu.Lock()
					s.sink += sink
					s.mu.Unlock()
					return
				case <-tick.C:
				}
			}
		}()
	}
	var errs []error
	for range cpus {
		errs = append(errs, <-ready)
	}
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop ends the sampler and waits for its goroutines to exit.
func (s *speedSampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

// speed returns the host's speed from t0 to t1 relative to the reference
// host, 1 on a nil sampler. Per processor it takes the kernel runs that
// ended in that interval, widened evenly to speedWindow if it is shorter
// (or the first run after it if none did), and divides their number times
// refNominal by the CPU time they took; the speed is the mean over the
// processors, as work spread over all of them feels it. The caller makes
// sure the sampler has run past the widened interval's end (settle).
func (s *speedSampler) speed(t0, t1 time.Time) float64 {
	if s == nil {
		return 1
	}
	if pad := (speedWindow - t1.Sub(t0)) / 2; pad > 0 {
		t0, t1 = t0.Add(-pad), t1.Add(pad)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, xs := range s.samples {
		lo := sort.Search(len(xs), func(i int) bool { return !xs[i].at.Before(t0) })
		hi := lo
		for hi < len(xs) && !xs[hi].at.After(t1) {
			hi++
		}
		if hi == lo {
			hi = min(lo+1, len(xs))
		}
		var took time.Duration
		for _, x := range xs[lo:hi] {
			took += x.cpu
		}
		if took <= 0 {
			return 1
		}
		sum += float64(time.Duration(hi-lo)*refNominal) / float64(took)
	}
	return sum / float64(len(s.samples))
}

// settle waits until the sampler has covered the speedWindow after t.
func (s *speedSampler) settle(t time.Time) {
	if s != nil {
		time.Sleep(time.Until(t.Add(speedWindow / 2)))
	}
}

// threadCPU returns the CPU time of the calling OS thread, read from the
// scheduler's nanosecond clock (getrusage's per-thread times move in
// ticks).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID on Linux
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

// allowedCPUs returns the processors the process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for w, word := range m {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			cpus = append(cpus, w*64+b)
			word &^= 1 << b
		}
	}
	return cpus, nil
}

// bindThread binds the calling OS thread to processor cpu.
func bindThread(cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("binding a sampler to cpu %d: %w", cpu, errno)
	}
	return nil
}
