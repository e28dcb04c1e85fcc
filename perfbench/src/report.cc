#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
// Nearest-rank percentile of sorted `v`; false without ten samples above.
bool RankPercentile(const std::vector<int64_t>& v, double p, double* out) {
  const size_t n = v.size();
  if (n == 0) return false;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return false;
  *out = static_cast<double>(v[rank - 1]);
  return true;
}
}  // namespace

void Samples::Merge(const Samples& o) {
  v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  sorted_.clear();
}

bool Samples::Percentile(double p, double* out) const {
  if (sorted_.size() != v_.size()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return RankPercentile(sorted_, p, out);
}

void Report::AddPercentile(const std::string& name, const Samples& s,
                           double p, double scale, const std::string& unit) {
  double v = 0;
  if (!s.Percentile(p, &v)) {
    std::fprintf(stderr, "perfbench: %s: %zu samples cannot support it; reads 0\n",
                 name.c_str(), s.size());
    Add(name, 0, unit);
    return;
  }
  Add(name, v * scale, unit);
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

namespace {
std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}
}  // namespace

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char num[64];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i) out += ", ";
    out += '"';
    out += Escape(m.name) + "\": {\"value\": " + num + ", \"unit\": \"" +
           Escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
