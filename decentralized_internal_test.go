package snacknoc

import (
	"strings"
	"testing"

	"snacknoc/internal/compiler"
	"snacknoc/internal/core"
)

// TestExecuteConcurrentBusyCPMIsAnError pins that a packet manager
// refusing a submission fails ExecuteConcurrent with an error naming the
// context instead of panicking. The public API never leaves a CPM busy
// between calls, so the test occupies one through the platform's
// internals first.
func TestExecuteConcurrentBusyCPMIsAnError(t *testing.T) {
	p, err := NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	reduction := func() (*Context, *Value) {
		ctx := p.NewContext()
		x, err := ctx.Input([]float64{1, 2, 3, 4}, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ctx.Reduce(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.GetValue(r, make([]float64, 1)); err != nil {
			t.Fatal(err)
		}
		return ctx, r
	}
	a, _ := reduction()
	b, r := reduction()

	g, err := b.builder.Build(r.node)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileCached(g, compiler.DefaultConfig(p.RCUs()))
	if err != nil {
		t.Fatal(err)
	}
	if !p.core.CPMs[1].Submit(prog, p.eng.Cycle(), func(*core.Result) {}) {
		t.Fatal("could not occupy CPM 1")
	}

	_, err = p.ExecuteConcurrent(a, b)
	if err == nil || !strings.Contains(err.Error(), "context 1") || !strings.Contains(err.Error(), "CPM busy") {
		t.Fatalf("err = %v, want a CPM-busy error naming context 1", err)
	}
}
