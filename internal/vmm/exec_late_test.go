package vmm

import (
	"fmt"
	"testing"
)

// One oracle per exit clause: tickless execution is exact only while
// horizon names every boundary at which a row of exit is due. Each mutant
// here has horizon read one row's next a boundary late (exec.late); the
// equivalence fixture must then fail, either at the crossed-boundary check
// in exit (a panic) or in its records against the every-boundary reference.

// fatalPanics turns the fixture's fatal errors into panics, so a mutant
// that trips one fails its run instead of the test.
type fatalPanics struct{ testing.TB }

func (p fatalPanics) Fatal(a ...any)                 { panic(fmt.Sprint(a...)) }
func (p fatalPanics) Fatalf(format string, a ...any) { panic(fmt.Sprintf(format, a...)) }

// lateRun runs the fixture at seed with row c read late and says how it
// failed against want: the panic, the first record that differs, or "" for
// not at all.
func lateRun(t *testing.T, seed uint64, c int, want map[string][]string) (failure string) {
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Sprint("panic: ", r)
		}
	}()
	f := newEquivFixture(fatalPanics{t}, seed, false)
	f.late = c + 1
	for _, g := range f.groups {
		for _, r := range g {
			r.rt.ex.late = f.late
		}
	}
	got := f.run()
	for _, machine := range []string{"", "A", "B", "C", "D"} {
		w, g := want[machine], got[machine]
		for i := 0; i < len(w) || i < len(g); i++ {
			if i >= len(w) || i >= len(g) || w[i] != g[i] {
				return fmt.Sprintf("machine %q record %d differs", machine, i)
			}
		}
	}
	return ""
}

func TestEachExitClauseLateFails(t *testing.T) {
	names := [clauses]string{"timer", "deliver", "checkpoint", "epoch", "pace"}
	for c := range clauses {
		t.Run(names[c], func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				want := newEquivFixture(t, seed, true).run()
				if failure := lateRun(t, seed, c, want); failure != "" {
					t.Logf("seed %d: %s", seed, failure)
					return
				}
			}
			t.Fatalf("the %s row read one boundary late went unseen at seeds 1-3", names[c])
		})
	}
}
