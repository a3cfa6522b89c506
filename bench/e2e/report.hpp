#pragma once
// Results of a run as an mpixccl.bench.v1 document (one point per
// (workload, metric): table = workload, series = metric, bytes = 0), the
// human-readable tables, DIR/layers.json, and the `compare` verdicts.

#include <string>
#include <vector>

#include "ladder.hpp"
#include "obs/analyze.hpp"
#include "workloads.hpp"

namespace mpixccl::e2e {

/// Append workload `w`'s end-to-end metrics, and when it ran traced its
/// layer metrics (counter ratios of the traced phase plus `ladder`).
void add_points(obs::BenchDoc& doc, Workload w, const WorkloadResult& r,
                double peak_rss_mb, const NamedValues& ladder);

/// One table per workload: metric, value, unit, clock.
std::string human_report(const obs::BenchDoc& doc);

/// Every layer metric per workload with its unit, clock and the end-to-end
/// metric it should move.
std::string layers_json(const obs::BenchDoc& doc);

/// Verdict per (workload, gated end-to-end metric) of `cand` runs against
/// `base` runs. Returns 1 when any verdict is "worse", else 0.
int compare(const std::vector<obs::BenchDoc>& base,
            const std::vector<obs::BenchDoc>& cand, std::string& report);

}  // namespace mpixccl::e2e
