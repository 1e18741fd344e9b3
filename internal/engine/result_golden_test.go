package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestQuickResultGolden pins the SHA-256 of the exported result document of
// every evaluated prefetcher (and the no-prefetch baseline) on two
// catalogue traces at Quick scale. The result bytes are the behaviour
// contract of the cache model, DRAM model, scheduler and prefetchers: any
// drift in simulated timing, placement or accounting moves a digest here.
// SPP-PPF is left out because its results are not reproducible from run
// to run (its recent-issue table is bounded by map iteration order).
func TestQuickResultGolden(t *testing.T) {
	want := map[string]map[string]string{
		"lbm-1274": {
			"none":      "8b132fa2b149c815c0a3015a46b1afd32c0d1f852126da13b1ab0d1756871ac9",
			"IP-stride": "2ce6e593f0ddded2a790a243d8896a5ad3cf623cfc95401255e0b22571a6fc2b",
			"IPCP-L1":   "72a1531e8c164a6bc6193c6219fa600090e0767238a91375f401e582abe2a855",
			"vBerti":    "62c74f785ed7ca8fbba41b5b6ba27f1180aaf07990bf7138fd3658d989934e82",
			"SMS":       "bf793eabe81998961220ebebe0e06e8ed7483108f0e16cef0707bbf7667aeb1a",
			"Bingo":     "8b3d070cc524eb085b9030a925e2db9c2f64cfec89f8b16ea38f10675abe34ce",
			"DSPatch":   "e9433e2fda0643f4bf5928ea2a4f26210febd8efedfd405207f95f245c37fb1d",
			"PMP":       "8feeadc65b9aa783ecf4398097a25a225a4454e1a2caefefed5809eecb640515",
			"Gaze":      "d0ab162db73ba35ac79072498deefa12103197167d5ac503036e05f7e3545047",
		},
		"PageRank-61": {
			"none":      "57748ec2b67cff2b1d151c2f544aef608a224da88e3b45c08d8756f439c74a19",
			"IP-stride": "0bbf84ff6c1ca0de2136406e3fda3568cd80a578b363b230a46247d9a6de2610",
			"IPCP-L1":   "7f979422233d3acadbf587440339d8e49af5b2542dfc4a9580b8796ae25aa298",
			"vBerti":    "8a83dc8fc475382db2c244ac4764c6b454f4c1854ac02b1d0f1a4fb76c1fffc0",
			"SMS":       "07093ba1be5a8a83b118ba8d73a0c8458837d916e841fce5aa6ea3522aa5f954",
			"Bingo":     "3c8a127d489bf31a429ac32cc26725cfaacc7587b60c20d3a38650b5ee0fe8af",
			"DSPatch":   "6095554734e74f87a498a06193289cc5f70c5311a6725af5f96b0b47e931bbe9",
			"PMP":       "4fe3176d6d3020f240de8aa8b2ff63bc0de1af880bc4bca720e7d84d202513bb",
			"Gaze":      "42bac061cbd1fa0acc265f7a085c79ef95c1162c9f0beb859bf72e91696265e9",
		},
	}
	var jobs []Job
	for tr, cells := range want {
		for pf := range cells {
			jobs = append(jobs, Job{Traces: []string{tr}, L1: []string{pf}})
		}
	}
	results := New(Options{Scale: Quick}).RunAll(jobs)
	for i, j := range jobs {
		doc, err := ExportResult(j.CanonicalJSON(Quick), results[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(doc)
		got := hex.EncodeToString(sum[:])
		if w := want[j.Traces[0]][j.L1[0]]; got != w {
			t.Errorf("%s/%s: result digest %s, golden %s", j.Traces[0], j.L1[0], got, w)
		}
	}
}
