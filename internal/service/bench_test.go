package service

import (
	"testing"
)

var benchReq = CheckRequest{
	Program: testProg,
	Policy:  "{2}",
	Domain:  []int64{0, 1, 2, 3, 4, 5, 6, 7},
}

// BenchmarkServiceSubmitWarm measures the end-to-end job path with a warm
// compile cache: submit, queue, sweep, verdict.
func BenchmarkServiceSubmitWarm(b *testing.B) {
	s := New(Config{Runners: 2, SweepWorkers: 1})
	defer s.Close()
	if j, err := s.Submit(benchReq); err != nil {
		b.Fatal(err)
	} else {
		<-j.Done()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(benchReq)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
	}
}

// BenchmarkServiceCompileColdVsWarm separates the compile-cache ablation:
// cold pays parse+instrument+Compile on every lookup, warm only the hash.
func BenchmarkServiceCompileColdVsWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewCompileCache(4)
			if _, _, err := c.GetOrCompile(benchReq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := NewCompileCache(4)
		if _, _, err := c.GetOrCompile(benchReq); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := c.GetOrCompile(benchReq); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}
