package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// outcome is what one scheduled request came to.
type outcome struct {
	latency time.Duration // completion minus due time
	ok      bool          // 2xx, and after the window every output check passed
	err     error         // transport error, non-2xx, or failed check
	traced  bool          // sent while the tracer was recording
	hash    uint64        // finds the answer among the kept bodies
}

// genStats is the generator's own accounting.
type genStats struct {
	slop      []time.Duration // idle dispatcher woke this late
	queueWait time.Duration   // total time every sender was busy
	// cpu is the process CPU time at the start of each statWindow of due
	// times, and once more when the last request is done; steal is the
	// machine's stolen CPU time at the same instants.
	cpu, steal []time.Duration
}

// statWindow splits the timed window for the end-to-end statistics: they
// are pooled over the windows the host disturbed least, so a burst of load
// from outside the benchmark drops the windows it covers, not the run.
const statWindow = 250 * time.Millisecond

// warmup is how long the workload's own traffic runs before the timed
// window. For the first ~10 s of traffic after set-up, CPU time per request
// runs 10–30% above its steady value, by a different amount in each run.
const warmup = 10 * time.Second

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenCPU is the CPU time the hypervisor has taken from this machine's
// virtual CPUs since boot (the steal column of /proc/stat), or 0 where the
// kernel does not report it.
func stolenCPU() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// traceSlice is the length of the alternating traced and untraced slices
// of a traced run.
const traceSlice = 250 * time.Millisecond

// spinMargin is how long before a due time the dispatcher stops sleeping
// and spins on the clock.
const spinMargin = 80 * time.Microsecond

// timerFD is a Linux timerfd read through the runtime's netpoller. A
// goroutine sleeping on it gives its P back to the scheduler, like
// time.Sleep, but wakes within about 50µs of the deadline: time.Sleep waits
// in the netpoller with millisecond resolution once every P is idle, which
// adds ~0.6ms to a sub-millisecond schedule.
type timerFD struct {
	fd uintptr
	f  *os.File
}

func newTimerFD() (*timerFD, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timerFD{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns at due: a timerfd sleep to spinMargin before it, then
// a spin.
func (t *timerFD) sleepUntil(due time.Time) error {
	if d := time.Until(due) - spinMargin; d > 0 {
		// struct itimerspec{it_interval, it_value}: one-shot, relative.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		var expirations [8]byte
		if _, err := t.f.Read(expirations[:]); err != nil {
			return fmt.Errorf("reading timerfd: %w", err)
		}
	}
	for time.Now().Before(due) {
	}
	return nil
}

// drive sends the schedule open-loop to base: one dispatcher releases each
// request at its due time to the first free of senders goroutines, each
// holding at most one connection. Latency counts from the due time, so a
// late dispatcher or a busy sender pool shows up in it; both are also
// reported on their own. keep stores each 2xx answer for the checks made
// after the window.
func drive(client *http.Client, base string, reqs []request, wires []wire, due []time.Time, senders int, tr *tracer, keep func(i int, body []byte) uint64) ([]outcome, genStats, error) {
	timer, err := newTimerFD()
	if err != nil {
		return nil, genStats{}, err
	}
	defer timer.f.Close()
	outs := make([]outcome, len(reqs))
	done := make([]chan struct{}, len(reqs))
	for i, r := range reqs {
		if r.kind != opSelect {
			done[i] = make(chan struct{})
		}
	}
	jobs := make(chan int)
	finished := make(chan struct{})
	for s := 0; s < senders; s++ {
		go func() {
			defer func() { finished <- struct{}{} }()
			var buf bytes.Buffer
			for i := range jobs {
				if a := reqs[i].after; a >= 0 {
					<-done[a]
				}
				traced := tr != nil && tr.on.Load()
				outs[i] = send(client, base, wires[i], due[i], &buf)
				outs[i].traced = traced
				if outs[i].ok {
					outs[i].hash = keep(i, buf.Bytes())
				}
				if done[i] != nil {
					close(done[i])
				}
			}
		}()
	}

	var st genStats
	for i := range reqs {
		if time.Now().Before(due[i]) {
			if err = timer.sleepUntil(due[i]); err != nil {
				break
			}
			st.slop = append(st.slop, time.Since(due[i]))
		}
		if tr != nil {
			tr.on.Store(due[i].Sub(due[0])/traceSlice%2 == 0)
		}
		if due[i].Sub(due[0]) >= time.Duration(len(st.cpu))*statWindow {
			st.cpu = append(st.cpu, processCPU())
			st.steal = append(st.steal, stolenCPU())
		}
		select {
		case jobs <- i:
		default:
			t0 := time.Now()
			jobs <- i
			st.queueWait += time.Since(t0)
		}
	}
	close(jobs)
	for s := 0; s < senders; s++ {
		<-finished
	}
	st.cpu = append(st.cpu, processCPU())
	st.steal = append(st.steal, stolenCPU())
	if tr != nil {
		tr.on.Store(false)
	}
	return outs, st, err
}

// send makes one call and times it from its due time. The body is left in
// buf.
func send(client *http.Client, base string, w wire, due time.Time, buf *bytes.Buffer) outcome {
	req, err := http.NewRequestWithContext(context.Background(), w.method, base+w.path, bytes.NewReader(w.body))
	if err != nil {
		return outcome{err: err}
	}
	if w.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	buf.Reset()
	resp, err := client.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	o := outcome{latency: time.Since(due)}
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode/100 != 2:
		o.err = fmt.Errorf("%s %s answered %d: %.200s", w.method, w.path, resp.StatusCode, buf.Bytes())
	}
	o.ok = o.err == nil
	return o
}
