package obs

import (
	"testing"
	"time"
)

// The flight recorder and the latency histogram sit on the serve request
// hot path, so their per-call cost is the observability layer's per-request
// overhead (the serve_hot workload of the repository benchmark pays it
// end to end with the whole layer attached; these pin the per-operation
// cost directly).

func BenchmarkFlightRecord(b *testing.B) {
	r := NewFlightRecorder(2048)
	ev := Event{Kind: "request", Tenant: "acme", Cohort: "c1", TraceID: 42, Dur: time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
}

func BenchmarkFlightRecordParallel(b *testing.B) {
	r := NewFlightRecorder(2048)
	ev := Event{Kind: "request", Tenant: "acme", Cohort: "c1", TraceID: 42, Dur: time.Millisecond}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(ev)
		}
	})
}

func BenchmarkFlightRecordNil(b *testing.B) {
	var r *FlightRecorder
	ev := Event{Kind: "request"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
}

func BenchmarkObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("sbgt_serve_request_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}
