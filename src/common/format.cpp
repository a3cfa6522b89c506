#include "common/format.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace mpixccl::fmt {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string byte_range(const void* p, std::size_t n) {
  const auto x = reinterpret_cast<std::uintptr_t>(p);
  std::ostringstream os;
  os << std::hex << "[0x" << x << ", 0x" << x + n << ")";
  return os.str();
}

std::string json_double(double v) {
  char buf[40];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string size_label(std::size_t bytes) {
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0) {
    return std::to_string(bytes >> 20) + "M";
  }
  if (bytes >= (1u << 10) && bytes % (1u << 10) == 0) {
    return std::to_string(bytes >> 10) + "K";
  }
  return std::to_string(bytes);
}

std::string num(double v, int prec) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
  return buf;
}

std::string fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string Table::str() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto render_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out += "  ";
      out += pad_left(row[c], c < widths.size() ? widths[c] : row[c].size());
    }
    out += '\n';
  };
  render_row(header_);
  for (const auto& row : rows_) render_row(row);
  return out;
}

void Table::print() const { std::printf("%s", str().c_str()); }

}  // namespace mpixccl::fmt
