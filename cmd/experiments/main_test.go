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
// prints. A refactor of internal/experiment that moves a digit here changed
// a rig's deploy order, a stream label or a source address. Fig 4's and the
// calibration's divergence counts pin a known defect (ROADMAP item 2: a
// median resolved at or before the replica's last exit is injected late).
const experimentsGolden = `==== fig4 ====
Fig 4(a): virtual inter-delivery gaps at attacker (ms)
  with victim:    n=3998 mean=2.00 p50=2.00 p95=2.50
  without victim: n=3998 mean=2.00 p50=2.00 p95=2.50
  KS distance: StopWatch=0.0465 baseline=0.1091 (suppression ×2.3)
  attacker replica divergences: 0

Fig 4(b): observations needed to detect victim
confidence        w/ SW       w/o SW
      0.70        241.4         45.6
      0.75        258.0         48.7
      0.80        277.4         52.4
      0.85        301.1         56.8
      0.90        332.7         62.8
      0.95        383.3         72.4
      0.99        490.9         92.7

==== calib ====
Sec VII-A: Δn calibration (load=true)
   Δn ms  divergences   deliveries    mean lat ms
       2          141          367           2.85
       8            0          367           8.69
      16            0          367          16.69

==== collab ====
Sec IX: collaborating attackers (marginalize one replica)
configuration             KS leak    obs @0.95
3-replicas                 0.0478        289.6
3-replicas+colluder        0.2914         21.8
5-replicas+colluder        0.0437        527.5

==== leader ====
Ablation: median delivery vs leader-dictated timing (Sec. II argument)
policy                KS leak    obs @0.95
median (StopWatch)     0.0418        428.9
leader-dictates        0.0345        811.1

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

// figuresGolden is what `experiments -fast -only
// fig1,fig1c,fig5,fig6,fig7,fig8,placement` prints: the paper's analytic
// figures, Fig 5-7 from running clusters in both VMM modes, and the
// placement table. A change that moves a digit here changed what the paper's
// figures report, and says why. Fig 6's divergence line pins the same known
// defect (ROADMAP item 2); it goes to 0 when that lands.
const figuresGolden = `==== fig1 ====
Fig 1(a): distributions (λ=1, λ'=0.5)
       x   baseline     victim median-3base median-2base+v
    0.00     0.0000     0.0000       0.0000         0.0000
    1.00     0.6321     0.3935       0.6936         0.5826
    2.00     0.8647     0.6321       0.9500         0.8956
    3.00     0.9502     0.7769       0.9928         0.9764
    4.00     0.9817     0.8647       0.9990         0.9948
    5.00     0.9933     0.9179       0.9999         0.9989
    6.00     0.9975     0.9502       1.0000         0.9997

KS distance: raw=0.2500 median=0.1116 (contraction ×2.24)

Fig 1(b/c): observations needed to detect victim
confidence     w/ SW (χ²)    w/o SW (χ²)    w/ SW (LRT)   w/o SW (LRT)
      0.70          117.5           18.6           11.3            1.8
      0.75          125.6           19.9           13.9            2.2
      0.80          135.0           21.4           17.2            2.7
      0.85          146.6           23.2           21.8            3.4
      0.90          162.0           25.6           28.4            4.4
      0.95          186.6           29.5           40.3            6.3
      0.99          239.0           37.8           69.7           10.8

==== fig1c ====
Fig 1(a): distributions (λ=1, λ'=0.909)
       x   baseline     victim median-3base median-2base+v
    0.00     0.0000     0.0000       0.0000         0.0000
    1.00     0.6321     0.5971       0.6936         0.6773
    2.00     0.8647     0.8377       0.9500         0.9437
    3.00     0.9502     0.9346       0.9928         0.9913
    4.00     0.9817     0.9737       0.9990         0.9987
    5.00     0.9933     0.9894       0.9999         0.9998
    6.00     0.9975     0.9957       1.0000         1.0000

KS distance: raw=0.0350 median=0.0168 (contraction ×2.09)

Fig 1(b/c): observations needed to detect victim
confidence     w/ SW (χ²)    w/o SW (χ²)    w/ SW (LRT)   w/o SW (LRT)
      0.70         5892.9         1253.6          552.4          114.5
      0.75         6297.9         1339.7          680.6          141.1
      0.80         6769.8         1440.1          844.7          175.1
      0.85         7348.2         1563.2         1065.7          220.9
      0.90         8120.0         1727.3         1391.4          288.4
      0.95         9356.1         1990.3         1975.6          409.6
      0.99        11981.1         2548.7         3412.2          707.4

==== fig5 ====
Fig 5: file-retrieval latency (ms, mean of 2 runs)
 size KB    HTTP base      HTTP SW    ratio     UDP base       UDP SW    ratio
       1        15.18        34.05     2.24        14.09        34.02     2.41
      10        19.00        37.87     1.99        18.13        37.94     2.09
     100        67.52       140.25     2.08        62.11        88.67     1.43
    1000       574.56      1211.76     2.11       526.00       645.68     1.23
lockstep divergences over the StopWatch runs: 0

==== fig6 ====
Fig 6(a): NFS mean latency per op (ms); 6(b): packets per op
  rate/s   baseline  stopwatch   ratio     c→s/op     s→c/op      ops
      25      11.35      29.87    2.63       4.15       3.08       48
      50      11.40      30.80    2.70       3.43       2.93       96
     100      11.48      30.99    2.70       2.98       2.66      199
     200      11.73      32.22    2.75       2.86       2.74      379
     400      12.40      32.53    2.62       2.71       2.57      779
lockstep divergences over the StopWatch runs: 39

==== fig7 ====
Fig 7(a): PARSEC-like runtimes (ms); 7(b): disk interrupts
app              baseline  stopwatch   ratio   disk#   paper base     paper SW
ferret                173        368    2.13      31          171          350
blackscholes          179        421    2.35      38          177          401
canneal              1555       2706    1.74     183         1530         3230
dedup                3762       5578    1.48     293         3730         5754
streamcluster         292        461    1.58      27          290          382
lockstep divergences over the StopWatch runs: 0

==== fig8 ====
Fig 8: expected delay, StopWatch vs uniform noise (λ=1, λ'=0.5, Δn=17.61)
confidence        obs    noise b   E[X2:3+Δn]    E[X'2:3+Δn]     E[X1+XN]      E[X'1+XN]
      0.70        6.0       0.50       18.443         18.643        1.250          2.250
      0.80       41.0       2.31       18.443         18.643        2.155          3.155
      0.90       97.0       3.13       18.443         18.643        2.565          3.565
      0.99      151.0       2.95       18.443         18.643        2.473          3.473

==== placement ====
Sec VIII: replica placement utilization (Theorems 1-2)
     n     c   Theorem2   greedy  isolated   Thm1 max     gain
     9     4         12        8         9         12     1.33
    15     7         35       35        15         35     2.33
    21    10         70       50        21         70     3.33
    27    13        117      101        27        117     4.33
    33    16        176      156        33        176     5.33
    63    31        651      651        63        651    10.33
    99    49       1617     1281        99       1617    16.33
   153    76       3876     2992       153       3876    25.33

`

func TestPaperFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-fast", "-only", "fig1,fig1c,fig5,fig6,fig7,fig8,placement"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != figuresGolden {
		t.Errorf("output moved:\n--- got\n%s--- want\n%s", &got, figuresGolden)
	}
}

// defaultGolden is what `experiments -only
// fig4,fig5,fig6,fig7,calib,collab,leader` prints: the seeded figures at
// their default durations and seeds, the lengths the paper's numbers are
// compared at. Some of what it pins is known to be wrong, and is pinned so
// that its fix shows as a moved line: Fig 4's 12 attacker replica
// divergences, Fig 6's 39 and the calibration's 277 and 18 at Δn = 2 and
// 4 ms are all ROADMAP item 2's late-injected median; and the leader table
// reads backwards, leader-dictated timing leaking less than the median
// (KS 0.0303 against 0.0325), where Sec. II argues the opposite.
const defaultGolden = `==== fig4 ====
Fig 4(a): virtual inter-delivery gaps at attacker (ms)
  with victim:    n=14998 mean=2.00 p50=2.00 p95=2.75
  without victim: n=14998 mean=2.00 p50=2.00 p95=2.75
  KS distance: StopWatch=0.0241 baseline=0.1149 (suppression ×4.8)
  attacker replica divergences: 12

Fig 4(b): observations needed to detect victim
confidence        w/ SW       w/o SW
      0.70        765.5         41.2
      0.75        818.1         44.0
      0.80        879.4         47.3
      0.85        954.5         51.3
      0.90       1054.8         56.7
      0.95       1215.3         65.4
      0.99       1556.3         83.7

==== fig5 ====
Fig 5: file-retrieval latency (ms, mean of 10 runs)
 size KB    HTTP base      HTTP SW    ratio     UDP base       UDP SW    ratio
       1        15.61        34.13     2.19        14.58        34.08     2.34
      10        19.62        38.04     1.94        18.60        38.02     2.04
     100        69.18       141.14     2.04        63.09        88.74     1.41
    1000       582.58      1212.67     2.08       530.44       645.72     1.22
   10000      5755.81     11938.67     2.07      5217.89      6227.38     1.19
lockstep divergences over the StopWatch runs: 0

==== fig6 ====
Fig 6(a): NFS mean latency per op (ms); 6(b): packets per op
  rate/s   baseline  stopwatch   ratio     c→s/op     s→c/op      ops
      25      11.40      30.05    2.64       3.37       2.80       97
      50      11.41      30.58    2.68       3.01       2.70      194
     100      11.63      31.39    2.70       2.86       2.74      399
     200      11.72      32.09    2.74       2.77       2.73      759
     400      12.45      32.49    2.61       2.68       2.59     1559
lockstep divergences over the StopWatch runs: 39

==== fig7 ====
Fig 7(a): PARSEC-like runtimes (ms); 7(b): disk interrupts
app              baseline  stopwatch   ratio   disk#   paper base     paper SW
ferret                173        368    2.13      31          171          350
blackscholes          179        421    2.35      38          177          401
canneal              1555       2706    1.74     183         1530         3230
dedup                3762       5578    1.48     293         3730         5754
streamcluster         292        461    1.58      27          290          382
lockstep divergences over the StopWatch runs: 0

==== calib ====
Sec VII-A: Δn calibration (load=true)
   Δn ms  divergences   deliveries    mean lat ms
       2          277          692           2.87
       4           18          692           4.71
       6            0          692           6.70
       8            0          692           8.70
      10            0          692          10.71
      12            0          692          12.70
      16            0          692          16.70

==== collab ====
Sec IX: collaborating attackers (marginalize one replica)
configuration             KS leak    obs @0.95
3-replicas                 0.0320        686.4
3-replicas+colluder        0.2438         15.1
5-replicas+colluder        0.0175       2996.4

==== leader ====
Ablation: median delivery vs leader-dictated timing (Sec. II argument)
policy                KS leak    obs @0.95
median (StopWatch)     0.0325        805.4
leader-dictates        0.0303        807.9

`

// raceBuild is set by race_test.go.
var raceBuild bool

func TestPaperFiguresDefaultGolden(t *testing.T) {
	if raceBuild {
		t.Skip("about 110 s under -race; the -fast goldens run the same code")
	}
	var got bytes.Buffer
	if err := run([]string{"-only", "fig4,fig5,fig6,fig7,calib,collab,leader"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != defaultGolden {
		t.Errorf("output moved:\n--- got\n%s--- want\n%s", &got, defaultGolden)
	}
}
