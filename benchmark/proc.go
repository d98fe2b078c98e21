package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the process-level cost counters at one instant.
type procSnap struct {
	At         time.Time
	User, Sys  time.Duration
	PeakRSSKB  int64
	TotalAlloc uint64
	HeapInuse  uint64
	NumGC      uint32
	GCPause    time.Duration
}

// snapProc reads getrusage and the Go memory statistics. ReadMemStats
// stops the world, so it is called at phase boundaries only.
func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		At:         time.Now(),
		User:       time.Duration(ru.Utime.Nano()),
		Sys:        time.Duration(ru.Stime.Nano()),
		PeakRSSKB:  int64(ru.Maxrss),
		TotalAlloc: ms.TotalAlloc,
		HeapInuse:  ms.HeapInuse,
		NumGC:      ms.NumGC,
		GCPause:    time.Duration(ms.PauseTotalNs),
	}
}

// procDelta is what one phase cost the process.
type procDelta struct {
	Wall, User, Sys time.Duration
	AllocBytes      uint64
	GCCycles        uint32
	GCPause         time.Duration
}

func (a procSnap) since(b procSnap) procDelta {
	return procDelta{
		Wall: a.At.Sub(b.At), User: a.User - b.User, Sys: a.Sys - b.Sys,
		AllocBytes: a.TotalAlloc - b.TotalAlloc,
		GCCycles:   a.NumGC - b.NumGC,
		GCPause:    a.GCPause - b.GCPause,
	}
}
