//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// CPU clocks. The closed-loop phases time work on them rather than on
// the wall clock: on a shared host the hypervisor takes vCPUs away
// (steal) for milliseconds at a time, and a vCPU taken away while the
// other waits on it (a GC stop-the-world, a lock) idles both. Wall
// time then swings by tens of percent between runs minutes apart,
// while the CPU time a job consumes does not.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the calling OS thread's CPU time. Callers lock their
// goroutine to its thread first.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the CPU time of every thread of the process: the
// clients, the GC's workers and the runtime.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }
