package core

import (
	"context"
	"testing"

	"spm/internal/sweep"
)

func BenchmarkCheckSoundnessSequential(b *testing.B) {
	q := ident2()
	pol := NewAllow(2, 2)
	dom := Grid(2, Range(0, 15)...)
	b.ReportMetric(float64(dom.Size()), "inputs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckSoundness(q, pol, dom, ObserveValue); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckSoundnessContext(b *testing.B) {
	q := ident2()
	pol := NewAllow(2, 2)
	dom := Grid(2, Range(0, 15)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckSoundnessContext(context.Background(), q, pol, dom, ObserveValue, CheckConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaximalTabulation(b *testing.B) {
	q := ident2()
	pol := NewAllow(2, 2)
	dom := Grid(2, Range(0, 7)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Maximal(q, pol, dom, ObserveValue); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionRun(b *testing.B) {
	a := passOn("A", func(v int64) bool { return v%2 == 0 })
	c := passOn("B", func(v int64) bool { return v < 2 })
	u := MustUnion("A∨B", a, c)
	in := []int64{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureLeak(b *testing.B) {
	q := ident2()
	pol := NewAllow(2, 1)
	dom := Grid(2, Range(0, 7)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureLeak(q, pol, dom, ObserveValue); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFold3 runs check on the compiled 3-input fold3 program over a 30³
// domain under allow(1) — one sweep worker at the service's stride width,
// every execution tier on — and reports the cost per tuple, so the verdict
// fold's time and allocations show next to the runner's.
func benchFold3(b *testing.B, check func(ctx context.Context, m Mechanism, pol Policy, dom Domain, cc CheckConfig) error) {
	m := fold3(b)
	pol := NewAllow(3, 1)
	dom := Grid(3, Range(0, 29)...)
	cc := CheckConfig{Config: sweep.Config{Workers: 1}, Batch: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := check(context.Background(), m, pol, dom, cc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dom.Size()), "ns/tuple")
}

func BenchmarkFoldSoundness3(b *testing.B) {
	benchFold3(b, func(ctx context.Context, m Mechanism, pol Policy, dom Domain, cc CheckConfig) error {
		_, err := CheckSoundnessContext(ctx, m, pol, dom, ObserveValue, cc)
		return err
	})
}

func BenchmarkFoldMaximality3(b *testing.B) {
	benchFold3(b, func(ctx context.Context, m Mechanism, pol Policy, dom Domain, cc CheckConfig) error {
		_, err := CheckMaximalityContext(ctx, m, m, pol, dom, ObserveValue, cc)
		return err
	})
}
