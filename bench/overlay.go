package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// topology names the brokers of an overlay and, for each, the index of the
// broker it dials with -peer (-1 for the root). A broker only dials brokers
// listed before it, so starting them in order builds a tree.
type topology struct {
	ids   []string
	peers []int
}

var (
	topoPair  = topology{ids: []string{"b1", "b2"}, peers: []int{-1, 0}}
	topoChain = topology{ids: []string{"b1", "b2", "b3"}, peers: []int{-1, 0, 1}}
	topoStar  = topology{ids: []string{"b1", "b2", "b3"}, peers: []int{-1, 0, 0}}
)

// buildBroker compiles cmd/rebeca-broker from the repository root, the
// working directory, into .bench_build/bin and returns the binary's path.
func buildBroker() (string, error) {
	bin, err := filepath.Abs(filepath.Join(".bench_build", "bin", "rebeca-broker"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rebeca-broker")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build rebeca-broker: %w\n%s", err, out)
	}
	return bin, nil
}

// overlay is a set of rebeca-broker daemons on loopback TCP, started with
// only -id, -listen and -peer. Each daemon runs in its own process group;
// all are killed by close, by the signal handler in main (killLiveChildren),
// and — should this process die without running either — by the kernel
// (Pdeathsig).
//
// When the process may run on more than one CPU, every broker is confined to
// the first of them and the generator to the rest (isolateGenerator). Left
// to the kernel, four processes' threads wander over two cores, a run's
// median latency moves by a quarter from one run to the next and the
// brokers' CPU time depends on whose threads they happened to share a core
// with; with the overlay on one core of its own, repeats agree within a few
// percent, and that core is the fixed budget the closed-loop phases
// saturate.
type overlay struct {
	procs []*brokerProc
	stop  chan struct{}
	done  chan struct{}
}

type brokerProc struct {
	id   string
	addr string
	cmd  *exec.Cmd
	log  *os.File
}

// live holds the process groups of every child this process has running, for
// the signal handler.
var live struct {
	sync.Mutex
	pgids map[int]struct{}
}

func trackChild(pid int, running bool) {
	live.Lock()
	defer live.Unlock()
	if live.pgids == nil {
		live.pgids = make(map[int]struct{})
	}
	if running {
		live.pgids[pid] = struct{}{}
	} else {
		delete(live.pgids, pid)
	}
}

// killLiveChildren is the last-resort cleanup for an interrupted run.
func killLiveChildren() {
	live.Lock()
	defer live.Unlock()
	for pid := range live.pgids {
		_ = syscall.Kill(-pid, syscall.SIGKILL)
	}
}

// startOverlay spawns the topology's brokers, each logging to
// logDir/<tag>-<id>.log, and returns once every broker accepts connections.
func startOverlay(p *params, topo topology, tag string) (*overlay, error) {
	bin, logDir := p.broker, p.outDir
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	o := &overlay{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan error, 1)
	// Pdeathsig is delivered when the thread that forked the child exits,
	// so one goroutine locked to its thread owns the children from fork to
	// reap. The children also inherit that thread's CPU affinity. The
	// goroutine never unlocks, so the confined thread ends with it and is
	// not handed back to the Go scheduler.
	go func() {
		runtime.LockOSThread()
		defer close(o.done)
		if p.brokerCPU != nil {
			setThreadCPUs(0, *p.brokerCPU)
		}
		err := o.spawn(bin, topo, logDir, tag)
		ready <- err
		if err == nil {
			<-o.stop
		}
		o.reap()
	}()
	if err := <-ready; err != nil {
		<-o.done
		return nil, err
	}
	return o, nil
}

func (o *overlay) spawn(bin string, topo topology, logDir, tag string) error {
	for i, id := range topo.ids {
		addr, err := freeLoopbackAddr()
		if err != nil {
			return err
		}
		args := []string{"-id", id, "-listen", addr}
		if p := topo.peers[i]; p >= 0 {
			args = append(args, "-peer", o.procs[p].addr)
		}
		logf, err := os.Create(filepath.Join(logDir, tag+"-"+id+".log"))
		if err != nil {
			return err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		p := &brokerProc{id: id, addr: addr, cmd: cmd, log: logf}
		o.procs = append(o.procs, p)
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start broker %s: %w", id, err)
		}
		trackChild(cmd.Process.Pid, true)
		if err := waitListening(addr, 10*time.Second); err != nil {
			return fmt.Errorf("broker %s: %w (see %s)", id, err, logf.Name())
		}
	}
	return nil
}

// reap asks every broker to shut down, kills what is left after a grace
// period, and waits for each process to end.
func (o *overlay) reap() {
	for _, p := range o.procs {
		if p.cmd.Process != nil {
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
		}
	}
	for _, p := range o.procs {
		if p.cmd.Process != nil {
			waited := make(chan struct{})
			go func() {
				_ = p.cmd.Wait() // a signalled daemon reports an error; nothing to do with it
				close(waited)
			}()
			select {
			case <-waited:
			case <-time.After(2 * time.Second):
				_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
				<-waited
			}
			trackChild(p.cmd.Process.Pid, false)
		}
		_ = p.log.Close()
	}
}

// cpuMask is a sched_setaffinity bit mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) add(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

// allowedCPUs lists the CPUs this process may run on, nil where the kernel
// will not say.
func allowedCPUs() []int {
	var allowed cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for w, bits := range allowed {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	return cpus
}

// isolateGenerator divides cpus, the CPUs this process may run on: it returns
// the first, for the brokers, and moves every thread of this process onto the
// rest (threads started later inherit that). With fewer than two CPUs it does
// nothing and returns nil. Call it before any goroutine has been locked to a
// thread.
func isolateGenerator(cpus []int) *cpuMask {
	if len(cpus) < 2 {
		return nil
	}
	var first, rest cpuMask
	first.add(cpus[0])
	for _, cpu := range cpus[1:] {
		rest.add(cpu)
	}
	tasks, err := filepath.Glob("/proc/self/task/*")
	if err != nil {
		return nil
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(filepath.Base(t)); err == nil {
			setThreadCPUs(tid, rest)
		}
	}
	return &first
}

// setThreadCPUs restricts thread tid (0: the calling thread, which must then
// be locked to its goroutine) and whatever it forks or starts from then on.
// Best effort: where the kernel refuses, threads float and the results are
// noisier.
func setThreadCPUs(tid int, mask cpuMask) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// keepAwake runs one busy loop per CPU in the idle scheduling class, which
// gets a CPU only while nothing else wants it and loses it the moment
// something does. A virtual CPU with nothing to run halts, and waking a
// halted one is a trip through the hypervisor that costs tens of
// microseconds on a good day and several times that on a bad one: with every
// hop of every notification a thread wake-up, that cost was most of
// deliver_p50_us, and it came in modes that lasted minutes (150 µs for seven
// runs, 250 µs for the next six, same code). With the CPUs kept awake the
// one-second medians of a run agree within a few percent and runs an hour
// apart agree with each other. The loops are shell processes, so that they
// are no concern of this process's Go scheduler and collector. It returns the
// number of CPUs kept awake — fewer than len(cpus) where sh is missing or the
// kernel refuses the idle class, and then the run goes on without — and a
// function that ends the loops and waits for them.
func keepAwake(cpus []int) (n int, stop func()) {
	started := make(chan int)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		runtime.LockOSThread() // owns the children from fork to reap and is never unlocked; see startOverlay
		defer close(done)
		var loops []*exec.Cmd
		for _, cpu := range cpus {
			cmd := exec.Command("sh", "-c", "while :; do :; done")
			cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
			if err := cmd.Start(); err != nil {
				break
			}
			pid := cmd.Process.Pid
			trackChild(pid, true)
			loops = append(loops, cmd)
			var mask cpuMask
			mask.add(cpu)
			setThreadCPUs(pid, mask)
			if !setThreadPolicy(pid, schedIdle, 0) {
				break // the last loop started competes as an ordinary process: it goes first, below
			}
			n++
		}
		for _, cmd := range loops[n:] {
			endLoop(cmd)
		}
		started <- n
		<-quit
		for _, cmd := range loops[:n] {
			endLoop(cmd)
		}
	}()
	return <-started, func() {
		close(quit)
		<-done
	}
}

func endLoop(cmd *exec.Cmd) {
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	_ = cmd.Wait() // killed: the error says so
	trackChild(cmd.Process.Pid, false)
}

// close stops the overlay and returns once every broker process has ended.
func (o *overlay) close() {
	close(o.stop)
	<-o.done
}

// addr returns the listen address of the i'th broker.
func (o *overlay) addr(i int) string { return o.procs[i].addr }

// freeLoopbackAddr picks an ephemeral loopback port by binding and
// releasing it; the daemon binds it again a moment later.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func waitListening(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not listening on %s after %v: %w", addr, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuSeconds returns the CPU time all broker processes have used so far,
// user and system.
func (o *overlay) cpuSeconds() (float64, error) {
	var total float64
	for _, p := range o.procs {
		s, err := processCPUSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("broker %s: %w", p.id, err)
		}
		total += s
	}
	return total, nil
}

// processCPUSeconds sums the on-CPU nanoseconds of every thread of the
// process from /proc/<pid>/task/<tid>/schedstat. A thread that has exited is
// missed, but the Go runtime keeps its threads. Kernels built without
// scheduler statistics have no such file; there /proc/<pid>/stat serves,
// which counts in 10 ms ticks.
func processCPUSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)) // the pattern is well-formed
	var ns uint64
	read := 0
	for _, task := range tasks {
		raw, err := os.ReadFile(task)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			if v, err := strconv.ParseUint(f[0], 10, 64); err == nil {
				ns += v
				read++
			}
		}
	}
	if read > 0 {
		return float64(ns) / 1e9, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis: utime and stime are the 12th and 13th
	// after it.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	const userHZ = 100 // the unit of those two fields on every Linux platform Go supports
	return float64(utime+stime) / userHZ, nil
}

// rssPeakMB returns the sum of the brokers' peak resident set sizes (VmHWM).
func (o *overlay) rssPeakMB() (float64, error) {
	var kb uint64
	for _, p := range o.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 0 {
					break
				}
				v, err := strconv.ParseUint(f[0], 10, 64)
				if err != nil {
					return 0, err
				}
				kb += v
				found = true
				break
			}
		}
		if !found {
			return 0, errors.New("no VmHWM in /proc status")
		}
	}
	return float64(kb) / 1024, nil
}
