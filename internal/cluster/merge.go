package cluster

import (
	"fmt"
	"sort"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/serve"
)

// MergeQuality folds the partitions' per-source expected confusion counts
// (their GET /partition/quality payloads, in partition order) into one
// global count table and reads the merged quality off the shared closed
// form — the cluster-level reconcile barrier of internal/shard, applied
// once at read time instead of every S sweeps.
//
// The sum is exact in the partition structure: every claim lives in
// exactly one partition, so no cell is counted twice, and summing in
// fixed partition order makes the float accumulation deterministic. The
// returned rows are in Table 8 order (decreasing sensitivity), matching
// a single server's /quality; for a single contributing partition the
// rows are bit-identical to that partition's own /quality table.
//
// All partitions must agree on priors and threshold — a mismatch means
// the cluster is misconfigured (the merged counts would mix incompatible
// Beta bases), and the merge fails loudly instead of averaging it away.
func MergeQuality(parts []serve.PartitionQuality) ([]model.SourceQuality, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("cluster: no partition quality to merge")
	}
	base := parts[0]
	for i, p := range parts[1:] {
		if p.Priors != base.Priors {
			return nil, fmt.Errorf("cluster: partition %d priors %+v != partition 0 priors %+v",
				i+1, p.Priors, base.Priors)
		}
		if p.Threshold != base.Threshold {
			return nil, fmt.Errorf("cluster: partition %d threshold %v != partition 0 threshold %v",
				i+1, p.Threshold, base.Threshold)
		}
	}
	var global map[string][2][2]float64
	for _, p := range parts {
		global = mergeCounts(global, p.Counts)
	}
	names := make([]string, 0, len(global))
	for name := range global {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]model.SourceQuality, 0, len(names))
	for _, name := range names {
		rows = append(rows, core.QualityFromCounts(name, global[name], base.Priors))
	}
	return core.RankedQuality(rows), nil
}

// mergeCounts folds one partition's per-source expected-count contribution
// into a global accumulator. The merge is a plain sum and is exact in the
// sense that every claim belongs to exactly one partition, so no cell is
// ever counted twice; the cells are float64 expected counts
// (posterior-weighted), so the result depends on float addition order and
// callers must fold contributions in a fixed partition order.
func mergeCounts(global map[string][2][2]float64, contrib map[string][2][2]float64) map[string][2][2]float64 {
	if global == nil {
		global = make(map[string][2][2]float64, len(contrib))
	}
	for name, e := range contrib {
		acc := global[name]
		for i := 0; i <= 1; i++ {
			for j := 0; j <= 1; j++ {
				acc[i][j] += e[i][j]
			}
		}
		global[name] = acc
	}
	return global
}
