package main

import (
	"syscall"
	"time"
)

// pause blocks for about d. It asks the kernel directly: here time.Sleep ends
// on the Go runtime's millisecond timer and takes 1.1 ms whatever it is asked
// for, while nanosleep overshoots by some 60 µs, and an open-loop generator
// that is late by half a millisecond on average would bury the server's share
// of every latency it reports.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
