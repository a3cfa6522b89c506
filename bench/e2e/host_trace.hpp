#pragma once
// Host-clock spans the benchmark records around its own calls into each
// layer (the library itself is not instrumented). One recorder per process,
// written from a single thread: rank 0 in the workloads, the main thread
// in the ladder. Spans stay in memory and are written at exit.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mpixccl::e2e {

/// The host clock every benchmark timing reads, in microseconds.
inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class HostTrace {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit HostTrace(std::size_t capacity = 100000);

  /// Open a span whose parent is the innermost open span. `name` must be a
  /// string literal (spans store the pointer). Returns kNone once full.
  std::uint32_t begin(const char* name, std::uint64_t call_id = 0);
  void end(std::uint32_t id);

  /// `{"workload", "dropped", "summary": [{name, count, total_us, self_us}...],
  ///   "spans": [{name, id, parent, call, start_us, end_us}...]}`, where a
  /// span's self time is its duration minus the time its children cover.
  [[nodiscard]] std::string to_json(const std::string& workload) const;

 private:
  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  [[nodiscard]] std::vector<Summary> summary() const;

  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t call;
    double start_us;
    double end_us;
  };
  double t0_;  ///< now_us() at construction
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t dropped_ = 0;
};

/// RAII span on an optional recorder (nullptr = tracing off, no cost).
class ScopedSpan {
 public:
  ScopedSpan(HostTrace* t, const char* name, std::uint64_t call_id = 0)
      : t_(t), id_(t != nullptr ? t->begin(name, call_id) : HostTrace::kNone) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  HostTrace* t_;
  std::uint32_t id_;
};

}  // namespace mpixccl::e2e
