package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This box is a virtual machine on a shared host. When the host runs
// another guest on a core this one wants, the kernel counts the wait as
// "steal" in /proc/stat. Between runs of identical code the steal share
// moves from under 1% to almost 40%, in bursts of seconds to minutes,
// and no bound survives that. It is the one part of the box's noise the
// harness can measure: a serving window is read second by second and
// its figures taken from the quieter seconds, and the long operations of
// cold-start and set-up are multiplied by the share of the CPU time the
// guest asked for that it got. README.md ("Noise") has the reasons.

// cpuTicks is the guest's CPU time since boot, in scheduler ticks, all
// CPUs together.
type cpuTicks struct {
	wanted int64 // every non-idle tick, the stolen ones included
	stolen int64
}

// readCPUTicks reads the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal ... Where it is
// not there to be read, every share comes out as 1.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.stolen = v
			t.wanted += v
		default:
			t.wanted += v
		}
	}
	return t
}

// unstolen is the share of the CPU time the guest wanted between two
// readings that it got.
func unstolen(a, b cpuTicks) float64 {
	wanted := b.wanted - a.wanted
	if wanted <= 0 {
		return 1
	}
	return 1 - float64(b.stolen-a.stolen)/float64(wanted)
}

// slice is one stretch of a timed window, between two readings.
type slice struct {
	from, to time.Duration // from the window's start
	unstolen float64
}

// stealMeter reads the CPU ticks at the start of a window, once a
// second while it runs, and at its end. A second of two CPUs is 200
// ticks, so a slice's share resolves half a percent; one read costs
// some tens of microseconds.
type stealMeter struct {
	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup

	at    []time.Duration
	ticks []cpuTicks
}

func startStealMeter(start time.Time) *stealMeter {
	m := &stealMeter{start: start, stop: make(chan struct{})}
	m.read()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.read()
			}
		}
	}()
	return m
}

func (m *stealMeter) read() {
	m.at = append(m.at, time.Since(m.start))
	m.ticks = append(m.ticks, readCPUTicks())
}

// finish takes the last reading and returns the window's slices.
func (m *stealMeter) finish() []slice {
	close(m.stop)
	m.wg.Wait()
	m.read()
	out := make([]slice, 0, len(m.at)-1)
	for i := 1; i < len(m.at); i++ {
		out = append(out, slice{m.at[i-1], m.at[i], unstolen(m.ticks[i-1], m.ticks[i])})
	}
	return out
}

// sliceAt is the index of the slice that holds offset d, -1 when d lies
// beyond the last one.
func sliceAt(slices []slice, d time.Duration) int {
	for i, s := range slices {
		if d <= s.to {
			return i
		}
	}
	return -1
}
