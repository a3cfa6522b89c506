#pragma once
// Human-readable formatting helpers for benchmark output (OMB-style tables).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mpixccl::fmt {

/// "4", "1K", "64K", "4M" — the message-size labels OMB prints.
std::string size_label(std::size_t bytes);

/// Escape a string for use inside a JSON string literal: quote, backslash
/// and control characters. The one escape helper every exporter (metrics
/// JSON/CSV, Chrome trace, bench results) shares — caller-chosen names go
/// into documents verbatim otherwise.
std::string json_escape(std::string_view s);

/// "[0xfirst, 0xlast)": a byte range in hex, for errors that name the
/// ranges a call rejected.
std::string byte_range(const void* p, std::size_t n);

/// Shortest decimal text that round-trips the double exactly (escalating
/// %.15g → %.17g). Use for JSON numbers that must survive a parse/re-emit
/// cycle, e.g. trace timestamps past ~1 s of virtual time where %.6g
/// truncation loses sub-microsecond structure.
std::string json_double(double v);

/// %.*g with `prec` significant digits: stable, locale-free text for report
/// and JSON numbers that need not round-trip exactly.
std::string num(double v, int prec = 10);

/// Fixed-point with `prec` decimals.
std::string fixed(double v, int prec = 2);

/// Pad to width (right-aligned).
std::string pad_left(const std::string& s, std::size_t width);

/// Simple column-aligned table printer used by the bench harness.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Render with 2-space gutters, right-aligned columns, one line per row.
  [[nodiscard]] std::string str() const;
  /// str() to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mpixccl::fmt
