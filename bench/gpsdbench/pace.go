package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts gpsdbench runs on are shared, and their speed moves under
// it: another tenant on a sibling hyperthread or a busy memory bus slows
// every process of the guest without any stolen time to show for it.
// Back-to-back runs of node-churn read from 19.6k to 30.4k decisions/s
// over six minutes, each run steady within itself. A fixed unit of work
// timed for a moment before and after each run did not follow that
// drift; the same unit timed on every CPU all through the window did, to
// a correlation of about 0.9 with decisions/s, bounds latency and CPU per
// operation. So a pace probe times a fixed unit on every CPU throughout
// the set-ups and the window, and every end-to-end metric is scaled to a
// host on which that unit takes paceRefNanos of CPU time.

// paceEvery is how often each CPU's probe runs the unit. At about 1 ms
// a unit the probe takes 2% of each CPU.
const paceEvery = 50 * time.Millisecond

// paceRefNanos is the reference host's CPU time for one unit, about
// what it takes on the 2-vCPU machines the baselines were measured on.
const paceRefNanos = 1e6

// paceUnit is the probe's fixed work: the kinds gpsd does per request
// — hashing, checksums, formatting and parsing numbers, map lookups,
// sorting floats, floating-point math — and none of it allocates, so the
// client's garbage collector never charges its work to the probe.
type paceUnit struct {
	buf        []byte
	vals, sort []float64
	m          map[uint64]float64
	num        []byte
	sink       float64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newPaceUnit() *paceUnit {
	u := &paceUnit{buf: make([]byte, 16<<10), vals: make([]float64, 4096), sort: make([]float64, 4096),
		m: make(map[uint64]float64, 4096), num: make([]byte, 0, 32)}
	x := uint64(1)
	for i := range u.buf {
		x = x*6364136223846793005 + 1442695040888963407
		u.buf[i] = byte(x >> 56)
	}
	for i := range u.vals {
		x = x*6364136223846793005 + 1442695040888963407
		u.vals[i] = float64(x>>11) / (1 << 53) * 1e3
		u.m[uint64(i)] = u.vals[i]
	}
	return u
}

func (u *paceUnit) run() {
	h := sha256.Sum256(u.buf)
	s := float64(h[0]) + float64(crc32.Checksum(u.buf, castagnoli)&0xff)
	copy(u.sort, u.vals)
	slices.Sort(u.sort)
	for i, v := range u.vals[:1024] {
		u.num = strconv.AppendFloat(u.num[:0], v, 'g', -1, 64)
		p, _ := strconv.ParseFloat(string(u.num), 64)
		s += p + u.m[uint64(i*7)%uint64(len(u.vals))]
	}
	for i := 1; i <= 2048; i++ {
		x := float64(i)
		s += math.Exp(-x/2048) * math.Log(x)
	}
	u.sink += s + u.sort[len(u.sort)/2]
}

// paceSample is one unit: when it ended on the run's clock, and the CPU
// time it took.
type paceSample struct{ at, ns int64 }

// pace is a running probe: one pinned thread per CPU the process may
// use.
type pace struct {
	clk     *clock
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []paceSample
	err     error
}

// startPace starts one probe thread per CPU, each pinned to its CPU
// where the kernel allows. An unpinned thread still times the unit, on
// whichever CPU it is given.
func startPace(clk *clock) *pace {
	p := &pace{clk: clk, stop: make(chan struct{})}
	cpus := allowedCPUs()
	for i := 0; i < runtime.NumCPU(); i++ {
		cpu := -1
		if i < len(cpus) {
			cpu = cpus[i]
		}
		p.wg.Add(1)
		go p.loop(cpu)
	}
	return p
}

func (p *pace) loop(cpu int) {
	defer p.wg.Done()
	// The thread is never unlocked, so it exits with this goroutine and
	// its pinning goes with it.
	runtime.LockOSThread()
	if cpu >= 0 {
		pinThread(cpu)
	}
	u := newPaceUnit()
	t := time.NewTicker(paceEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		t0, err := threadCPUNanos()
		u.run()
		t1, err1 := threadCPUNanos()
		if err = errors.Join(err, err1); err != nil {
			p.fail(err)
			return
		}
		p.mu.Lock()
		p.samples = append(p.samples, paceSample{p.clk.now(), t1 - t0})
		p.mu.Unlock()
	}
}

func (p *pace) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = fmt.Errorf("pace probe: %w", err)
	}
}

// finish stops every probe thread and waits for it; later calls return
// at once.
func (p *pace) finish() error {
	p.stopped.Do(func() { close(p.stop) })
	p.wg.Wait()
	return p.err
}

// speed is the host's speed against the reference host's over the times
// on the run's clock that in accepts: paceRefNanos over the mean time of
// the units that ended then, and how many there were. It is read after
// finish.
//
// Unit times have two modes, about 1 ms and about 0.7 ms, and the share
// of fast units moves between runs. A median jumps from one mode to the
// other as that share crosses a half — it read speeds of 1.43 and 1.46
// in runs where gpsd ran about 10% faster — where the mean moves with
// the share.
func (p *pace) speed(in func(at int64) bool) (float64, int) {
	var sum float64
	n := 0
	for _, s := range p.samples {
		if in(s.at) {
			sum += float64(s.ns)
			n++
		}
	}
	return paceRefNanos * float64(n) / sum, n
}

// cpuMask is a sched_{get,set}affinity CPU set of 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the process may run on, or none when the
// kernel will not say.
func allowedCPUs() []int {
	var mask cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread asks the kernel to run the calling thread on one CPU only;
// if it refuses, the thread stays where it may run.
func pinThread(cpu int) {
	var mask cpuMask
	mask[cpu/64] |= 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
}

// threadCPUNanos is the calling thread's CPU time.
func threadCPUNanos() (int64, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", e)
	}
	return ts.Nano(), nil
}
