package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunFig1Only(t *testing.T) {
	if err := run([]string{"-only", "fig1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlacementOnly(t *testing.T) {
	if err := run([]string{"-only", "placement"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownSelection(t *testing.T) {
	if err := run([]string{"-only", "nonsense"}, io.Discard); err == nil {
		t.Fatal("unknown selection should fail")
	}
	// A known name beside an unknown one: the whole selection is rejected,
	// naming the stranger and listing what exists.
	err := run([]string{"-only", "fig1, typo"}, io.Discard)
	if err == nil {
		t.Fatal("-only fig1,typo ran fig1 and dropped typo")
	}
	for _, want := range []string{`"typo"`, "fig1,fig1c,fig4", "leader"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-frobnicate"}, io.Discard); err == nil {
		t.Fatal("unknown flag should fail")
	}
}

// experimentsGolden is what `experiments -fast -only fig4,calib,collab,leader`
// printed at PR 23, before the four runs were built from one probe rig. A
// refactor of internal/experiment that moves a digit here changed a rig's
// deploy order, a stream label or a source address.
const experimentsGolden = `==== fig4 ====
Fig 4(a): virtual inter-delivery gaps at attacker (ms)
  with victim:    n=3998 mean=2.00 p50=2.00 p95=2.50
  without victim: n=3998 mean=2.00 p50=2.00 p95=2.50
  KS distance: StopWatch=0.0450 baseline=0.1091 (suppression ×2.4)
  attacker replica divergences: 2

Fig 4(b): observations needed to detect victim
confidence        w/ SW       w/o SW
      0.70        262.7         45.6
      0.75        280.8         48.7
      0.80        301.8         52.4
      0.85        327.6         56.8
      0.90        362.0         62.8
      0.95        417.1         72.4
      0.99        534.2         92.7

==== calib ====
Sec VII-A: Δn calibration (load=true)
   Δn ms  divergences   deliveries    mean lat ms
       2          126          367           2.83
       8            0          367           8.69
      16            0          367          16.69

==== collab ====
Sec IX: collaborating attackers (marginalize one replica)
configuration             KS leak    obs @0.95
3-replicas                 0.0478        289.6
3-replicas+colluder        0.2962         20.5
5-replicas+colluder        0.0437        527.5

==== leader ====
Ablation: median delivery vs leader-dictated timing (Sec. II argument)
policy                KS leak    obs @0.95
median (StopWatch)     0.0500        315.1
leader-dictates        0.0398        585.5

`

func TestProbeExperimentsGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-fast", "-only", "fig4,calib,collab,leader"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != experimentsGolden {
		t.Errorf("output moved:\n--- got\n%s--- want\n%s", &got, experimentsGolden)
	}
}
