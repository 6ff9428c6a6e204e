#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace vdcbench {

double TailQuantile(size_t n) {
  if (n <= 2 * kTailMargin) return 0.5;
  return std::min(0.99, static_cast<double>(n - kTailMargin) /
                            static_cast<double>(n));
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q = (n - m) / n from rounding up one rank.
  double rank = std::ceil(q * n - 1e-9);
  rank = std::clamp(rank, 1.0, n);
  return sorted[static_cast<size_t>(rank) - 1];
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = QuantileSorted(samples, 0.5);
  s.tail_q = TailQuantile(samples.size());
  s.tail = QuantileSorted(samples, s.tail_q);
  for (double v : samples) s.sum += v;
  s.max = samples.back();
  return s;
}

std::string TailLabel(double q) {
  char buf[32];
  const double pct = q * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "p%.0f", pct);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f", std::floor(pct * 10) / 10);
  }
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  fields_.emplace_back(key, FormatNumber(value));
  return *this;
}
JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}
JsonObject& JsonObject::Add(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}
JsonObject& JsonObject::Add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}
JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
  return *this;
}
JsonObject& JsonObject::Add(const std::string& key, const char* value) {
  return Add(key, std::string(value));
}
JsonObject& JsonObject::Add(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.str());
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

}  // namespace vdcbench
