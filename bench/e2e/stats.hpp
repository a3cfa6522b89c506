#pragma once
// Order statistics for the benchmark's samples and the regression verdict
// `mpixccl_bench compare` gives per (workload, metric).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "spec.hpp"

namespace mpixccl::e2e {

/// Nearest-rank quantile (q in [0, 1]) of a non-empty sample; sorts `v`.
double quantile(std::vector<double>& v, double q);
/// Middle value, or the mean of the two middle values (statistics.median).
double median(std::vector<double> v);

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten of `n`
/// samples above it, or 0 when even the median does not (n < 20).
double highest_reportable_quantile(std::size_t n);

/// (Q3 - Q1) / median with the quartiles Python's
/// statistics.quantiles(v, n=4) returns; 0 for fewer than two samples.
double relative_iqr(std::vector<double> v);

/// Fixed-capacity sample store, written in full at construction so the
/// process's memory does not depend on how many samples a run takes. Keeps
/// every stride-th sample and doubles the stride whenever it fills up, so
/// what it holds stays spread evenly over the whole run.
class Samples {
 public:
  /// A zero-capacity store drops every sample.
  explicit Samples(std::size_t capacity = 0);
  void push(double v);
  [[nodiscard]] std::span<const double> values() const { return {buf_.data(), n_}; }
  /// Samples pushed, kept or not.
  [[nodiscard]] std::uint64_t count() const { return seen_; }
  [[nodiscard]] std::vector<double> copy() const {
    return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n_)};
  }

 private:
  std::vector<double> buf_;
  std::size_t n_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
};

/// Quantile q of each of `windows` equal consecutive slices of `v`, and the
/// median of those: a stall confined to part of a run moves it little.
double windowed_quantile(std::span<const double> v, double q, std::size_t windows);

/// Progress marks (cumulative calls, seconds) cut into `windows` equal runs
/// of marks; the median of their calls per second.
double windowed_rate(std::span<const std::pair<double, double>> marks,
                     std::size_t windows);

enum class Verdict { Better, Same, Worse, Unresolved };
std::string_view to_string(Verdict v);

/// Judge candidate runs against base runs of one metric. Exact metrics
/// (bound 0) compare medians for equality. Bounded metrics are worse when
/// the candidate median moved the wrong way by more than the bound, better
/// when it moved the right way by more than the bound, and unresolved when
/// the base runs alone spread wider than the bound (unless every candidate
/// run beats every base run).
Verdict judge(const MetricSpec& m, std::vector<double> base,
              std::vector<double> cand);

}  // namespace mpixccl::e2e
