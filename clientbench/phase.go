package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// phase is one closed-loop traffic phase through the server.
type phase struct {
	logs  []*sessionLog
	rt    runtimeSample // deltas over the phase
	ticks []tick        // window boundaries: the start, one a window, the end
}

// tick is a window boundary: the time, the process CPU time, and the
// machine's stolen and total CPU time in clock ticks, all so far.
type tick struct {
	at           time.Time
	cpu          time.Duration
	steal, total uint64
}

func sample(at time.Time) tick {
	steal, total := hostTicks()
	return tick{at, cpuTime(), steal, total}
}

// window is the length of the windows read_qps, write_qps and
// cpu_ms_per_op are medians over, so a burst of load from outside the
// benchmark moves them less than it moves a whole-run average.
const window = time.Second

func measure(in *instance, w *workload, streams []stream, d time.Duration) *phase {
	liveHeap() // start every phase from a collected heap
	rt0, t0 := readRuntime(), time.Now()
	ph := &phase{ticks: []tick{sample(t0)}}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tk := time.NewTicker(window)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tk.C:
				ph.ticks = append(ph.ticks, sample(now))
			}
		}
	}()
	ph.logs = drive(in.executors(), streams, w.pace, t0.Add(d), nil)
	close(stop)
	<-sampled
	ph.ticks = append(ph.ticks, sample(time.Now()))
	rt1 := readRuntime()
	ph.rt = runtimeSample{
		allocs:     rt1.allocs - rt0.allocs,
		allocBytes: rt1.allocBytes - rt0.allocBytes,
		gcCPU:      rt1.gcCPU - rt0.gcCPU,
		totalCPU:   rt1.totalCPU - rt0.totalCPU,
	}
	return ph
}

// windowed is the phase seen per window: the reads and writes completed
// per second and the CPU milliseconds per completed statement.
type windowed struct {
	readRate, writeRate, cpuPerOp []float64
}

// windowed splits the phase at its ticks. A tail shorter than half a
// window is dropped unless it is the only window.
func (ph *phase) windowed() windowed {
	var out windowed
	count := func(ts []time.Time, from, to time.Time) int {
		n := 0
		for _, t := range ts {
			if !t.Before(from) && t.Before(to) {
				n++
			}
		}
		return n
	}
	for k := 1; k < len(ph.ticks); k++ {
		a, b := ph.ticks[k-1], ph.ticks[k]
		secs := b.at.Sub(a.at).Seconds()
		if secs < window.Seconds()/2 && len(ph.ticks) > 2 {
			continue
		}
		var reads, writes int
		for _, l := range ph.logs {
			reads += count(l.readEnds, a.at, b.at)
			writes += count(l.writeEnds, a.at, b.at)
		}
		out.readRate = append(out.readRate, float64(reads)/secs)
		out.writeRate = append(out.writeRate, float64(writes)/secs)
		if reads+writes > 0 {
			out.cpuPerOp = append(out.cpuPerOp, float64(b.cpu-a.cpu)/float64(time.Millisecond)/float64(reads+writes))
		}
	}
	return out
}

// latencies returns every acknowledged read's and write's latency.
func (ph *phase) latencies() (reads, writes []time.Duration) {
	for _, l := range ph.logs {
		reads = append(reads, l.reads...)
		writes = append(writes, l.writes...)
	}
	return reads, writes
}

// stealShare is the share of the machine's CPU time the hypervisor stole
// during the phase: load from outside the benchmark, reported so a slow
// run can be told from a slow program.
func (ph *phase) stealShare() float64 {
	a, b := ph.ticks[0], ph.ticks[len(ph.ticks)-1]
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostTicks reads the machine's stolen and total CPU time from /proc/stat;
// where it cannot, it returns zeros.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
