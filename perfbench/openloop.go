package main

import (
	"context"
	"sync"
	"time"
)

// dispatch is the open-loop driver. It starts fn(i, due) for every
// offset at its due time — start plus offsets[i] — whether or not
// earlier requests have finished, and returns once every started call
// has returned. A request's clock starts at its due time, so a stall in
// the generator or in the system shows as latency of the requests it
// delays. The returned slice is each request's lateness in
// milliseconds: how long after its due time the generator got to it.
// Offsets must be non-decreasing. After ctx ends no further request is
// started; the calls that were are still awaited.
func dispatch(ctx context.Context, offsets []time.Duration, fn func(i int, due time.Time)) []float64 {
	late := make([]float64, 0, len(offsets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				wg.Wait()
				return late
			case <-timer.C:
			}
		}
		late = append(late, ms(time.Since(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, due)
		}()
	}
	wg.Wait()
	return late
}
