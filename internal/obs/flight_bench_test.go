package obs

import "testing"

// The http span and the latency histogram sit on the serve request hot
// path, so their per-call cost is the observability layer's per-request
// overhead (the serve_hot workload of the repository benchmark pays it
// end to end with the whole layer attached; these pin the per-operation
// cost directly). recordHTTP records the span as the server's guard
// does: two attrs at Start in a slice sized once, three more before End.
// The attr values are constants, so what is priced is the tracer's
// record path (the span and its attr slice); the guard also converts its
// four request strings to interface values, one 16-byte allocation each.
func recordHTTP(tr *Tracer) {
	attrs := make([]Attr, 2, 6)
	attrs[0], attrs[1] = A("method", "POST"), A("path", "/v1/cohorts/c00000001/results")
	s := tr.Start("http", attrs...)
	s.SetAttr("tenant", "acme")
	s.SetAttr("cohort", "c00000001")
	s.SetAttr("status", 200)
	s.End()
}

func BenchmarkSpan(b *testing.B) {
	tr := NewTracer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordHTTP(tr)
	}
}

func BenchmarkSpanParallel(b *testing.B) {
	tr := NewTracer(0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			recordHTTP(tr)
		}
	})
}

func BenchmarkSpanNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordHTTP(tr)
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
