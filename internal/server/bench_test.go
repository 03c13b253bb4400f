package server

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/obs"
)

// BenchmarkServeMiss times the work of one uncached corpus request — load,
// schedule, simulate, marshal — through Server.compute, which every cache
// miss runs and nothing else does. Each op is one request; ops cycle through
// the nine benchmarks at the serve benchmark's shape (scale 0.25,
// max_calls 5000, window 1024 for online-iar), so run a multiple of 9 ops.
func BenchmarkServeMiss(b *testing.B) {
	names := dacapo.Names()
	for _, algo := range []string{"iar", "jikes", "v8", "online-iar"} {
		b.Run(algo, func(b *testing.B) {
			s := New(Options{Metrics: &obs.Metrics{}})
			defer s.Shutdown()
			pl := new(core.IARPlanner)
			reqs := make([]*ScheduleRequest, len(names))
			for i, name := range names {
				reqs[i] = &ScheduleRequest{Algo: algo, Bench: name, Scale: 0.25, MaxCalls: 5000}
				if algo == "online-iar" {
					reqs[i].Window = 1024
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.compute(context.Background(), reqs[i%len(reqs)], pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
