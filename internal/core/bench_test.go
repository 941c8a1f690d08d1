package core

import (
	"context"
	"testing"
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
