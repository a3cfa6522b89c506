#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace mpixccl::e2e {

double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double highest_reportable_quantile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.0;
}

double relative_iqr(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  // statistics.quantiles' default 'exclusive' method.
  const auto n = static_cast<long long>(v.size());
  auto cut = [&](long long i) {
    const long long j = std::clamp(i * (n + 1) / 4, 1LL, n - 1);
    const auto delta = static_cast<double>(i * (n + 1) - j * 4);
    const auto k = static_cast<std::size_t>(j);
    return (v[k - 1] * (4.0 - delta) + v[k] * delta) / 4.0;
  };
  const double med = cut(2);  // statistics.median
  return med != 0.0 ? std::abs(cut(3) - cut(1)) / std::abs(med) : 0.0;
}

Samples::Samples(std::size_t capacity) : buf_(capacity, 0.0) {}

void Samples::push(double v) {
  if (buf_.empty()) return;
  const std::uint64_t i = seen_++;
  if (i % stride_ != 0) return;
  if (n_ == buf_.size()) {
    for (std::size_t k = 0; k < n_ / 2; ++k) buf_[k] = buf_[2 * k];
    n_ /= 2;
    stride_ *= 2;
    if (i % stride_ != 0) return;
  }
  buf_[n_++] = v;
}

double windowed_quantile(std::span<const double> v, double q, std::size_t windows) {
  windows = std::clamp<std::size_t>(windows, 1, v.size());
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    auto at = [&](std::size_t i) {
      return v.begin() + static_cast<std::ptrdiff_t>(i * v.size() / windows);
    };
    std::vector<double> slice(at(w), at(w + 1));
    per.push_back(quantile(slice, q));
  }
  return median(per);
}

double windowed_rate(std::span<const std::pair<double, double>> marks,
                     std::size_t windows) {
  const std::size_t spans = marks.size() - 1;
  windows = std::clamp<std::size_t>(windows, 1, spans);
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto& a = marks[w * spans / windows];
    const auto& b = marks[(w + 1) * spans / windows];
    per.push_back((b.first - a.first) / (b.second - a.second));
  }
  return median(per);
}

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::Better: return "better";
    case Verdict::Same: return "same";
    case Verdict::Worse: return "worse";
    case Verdict::Unresolved: return "unresolved";
  }
  return "?";
}

Verdict judge(const MetricSpec& m, std::vector<double> base,
              std::vector<double> cand) {
  const double b = median(base);
  const double c = median(cand);
  const double sign = m.better == Better::Lower ? 1.0 : -1.0;
  if (m.bound == 0.0) {
    if (b == c) return Verdict::Same;
    return sign * (c - b) > 0.0 ? Verdict::Worse : Verdict::Better;
  }
  const double worse = b != 0.0 ? sign * (c - b) / std::abs(b) : 0.0;
  if (relative_iqr(base) > m.bound) {
    const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
    const auto [cmin, cmax] = std::minmax_element(cand.begin(), cand.end());
    const bool all_better =
        m.better == Better::Lower ? *cmax < *bmin : *cmin > *bmax;
    return all_better ? Verdict::Better : Verdict::Unresolved;
  }
  if (worse > m.bound) return Verdict::Worse;
  if (-worse > m.bound) return Verdict::Better;
  return Verdict::Same;
}

}  // namespace mpixccl::e2e
