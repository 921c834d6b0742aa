// Package sim implements a deterministic discrete-event simulation kernel
// with green-thread processes.
//
// The kernel advances a virtual clock over a heap of timestamped events.
// Simulated processes are ordinary goroutines, but exactly one goroutine
// (either the kernel or a single process) runs at any instant; control is
// handed off explicitly through channels. This gives process code a natural
// blocking style (Sleep, then block on a receive, ...) while keeping the
// simulation fully deterministic: events at equal times fire in scheduling
// order, and there is no data race by construction.
//
// The kernel is the substrate for the two-layer interconnect model in
// package network and the message-passing runtime in package par.
package sim

import (
	"math"
	"strconv"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations are also expressed as Time.
type Time int64

// Convenient duration units of virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit, e.g. "3.300ms".
func (t Time) String() string {
	var buf [24]byte
	return string(t.Append(buf[:0]))
}

// Append appends t's String form to b, formatting without fmt.
func (t Time) Append(b []byte) []byte {
	switch {
	case t < 0:
		return (-t).Append(append(b, '-'))
	case t < Microsecond:
		return append(strconv.AppendInt(b, int64(t), 10), "ns"...)
	case t < Millisecond:
		return append(strconv.AppendFloat(b, t.Microseconds(), 'f', 3, 64), "us"...)
	case t < Second:
		return append(strconv.AppendFloat(b, t.Milliseconds(), 'f', 3, 64), "ms"...)
	default:
		return append(strconv.AppendFloat(b, t.Seconds(), 'f', 3, 64), 's')
	}
}

// TransmissionTime returns the virtual time needed to push size bytes
// through a pipe of the given bandwidth in bytes per second. A non-positive
// bandwidth means an infinitely fast pipe.
func TransmissionTime(size int64, bytesPerSecond float64) Time {
	if bytesPerSecond <= 0 || size <= 0 {
		return 0
	}
	return Time(float64(size) / bytesPerSecond * float64(Second))
}
