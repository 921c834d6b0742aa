package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// reportPerEvent attaches ns/event and allocs/event metrics, the units the
// performance work is tracked in (an "op" below is a whole chain step, so
// the default per-op numbers hide the per-event cost).
func reportPerEvent(b *testing.B, k *Kernel, mallocsBefore uint64) {
	events := k.EventsFired()
	if events == 0 {
		b.Fatal("no events fired")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(ms.Mallocs-mallocsBefore)/float64(events), "allocs/event")
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkKernelScheduleFire measures the pure event-loop cycle: schedule
// one event, fire it, schedule the next — the ladder queue's hot path with
// no processes involved.
func BenchmarkKernelScheduleFire(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	remaining := b.N
	var step func()
	step = func() {
		if remaining == 0 {
			return
		}
		remaining--
		k.After(Microsecond, step)
	}
	k.After(0, step)
	mallocs := mallocCount()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportPerEvent(b, k, mallocs)
}

// mixTimer reschedules itself a delay drawn from mix each time it fires.
type mixTimer struct {
	k         *Kernel
	rng       *rand.Rand
	mix       func(*rand.Rand) Time
	remaining int
}

func (m *mixTimer) HandleEvent(token uint64) {
	if m.remaining > 0 {
		m.remaining--
		m.k.CallAfter(m.mix(m.rng), m, token)
	}
}

// benchQueueMix keeps 300 events pending, each rescheduled on firing at a
// delay drawn from mix.
func benchQueueMix(b *testing.B, mix func(*rand.Rand) Time) {
	b.ReportAllocs()
	k := NewKernel()
	m := &mixTimer{k: k, rng: rand.New(rand.NewSource(1)), mix: mix, remaining: b.N}
	for i := uint64(0); i < 300; i++ {
		k.CallAfter(mix(m.rng), m, i)
	}
	mallocs := mallocCount()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportPerEvent(b, k, mallocs)
}

// BenchmarkQueueSweepMix measures the event loop the way a sweep loads it,
// where BenchmarkKernelScheduleFire keeps the queue at depth one: the
// delays follow the split measured on a cold Small Figure 3.
func BenchmarkQueueSweepMix(b *testing.B) { benchQueueMix(b, sweepMix) }

// BenchmarkQueueRegimeMix is BenchmarkQueueSweepMix on the regime study's
// split, where almost half the events go 5 ms to 1.5 s out.
func BenchmarkQueueRegimeMix(b *testing.B) { benchQueueMix(b, regimeMix) }

// BenchmarkProcessHandoff measures a blocking wake chain between two
// processes: each Signal forces a full block → event → dispatch → resume
// cycle, the cost the coroutine scheduler exists to minimize.
func BenchmarkProcessHandoff(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	var ping, pong Cond
	n := b.N
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			k.After(0, func() { pong.Signal() })
			ping.Wait(p, "ping")
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			pong.Wait(p, "pong")
			k.After(0, func() { ping.Signal() })
		}
	})
	mallocs := mallocCount()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportPerEvent(b, k, mallocs)
}
