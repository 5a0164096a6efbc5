#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace dtb {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= kTailBeyond) return t;
  std::sort(v.begin(), v.end());
  const size_t rank = v.size() - 1 - kTailBeyond;
  t.value = v[rank];
  t.percentile = 100.0 * static_cast<double>(v.size() - kTailBeyond) /
                 static_cast<double>(v.size());
  t.ok = true;
  return t;
}

Summary Summarize(const std::vector<double>& in_time_order) {
  Summary s;
  const size_t n = in_time_order.size();
  s.windows = std::max<size_t>(1, n / kWindowSamples);
  double p50_sum = 0, tail_sum = 0;
  Tail last;
  for (size_t w = 0; w < s.windows; ++w) {
    const auto begin = in_time_order.begin() +
                       static_cast<std::ptrdiff_t>(n * w / s.windows);
    const auto end = in_time_order.begin() +
                     static_cast<std::ptrdiff_t>(n * (w + 1) / s.windows);
    std::vector<double> win(begin, end);
    p50_sum += Median(win);
    last = TailOf(std::move(win));
    tail_sum += last.value;
  }
  s.p50 = p50_sum / static_cast<double>(s.windows);
  s.tail = last;
  s.tail.value = tail_sum / static_cast<double>(s.windows);
  return s;
}

double MedianRate(const std::vector<double>& done_s, size_t block) {
  std::vector<double> rates;
  double prev = 0;
  for (size_t end = block; end <= done_s.size(); end += block) {
    const double t = done_s[end - 1];
    if (t > prev) rates.push_back(static_cast<double>(block) / (t - prev));
    prev = t;
  }
  return Median(rates);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string ValuesJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  char num[64];
  for (const auto& [name, v] : values) {
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(v) ? v : 0.0);
    if (out.size() > 1) out += ", ";
    out += "\"" + JsonEscape(name) + "\": " + num;
  }
  return out + "}";
}

void Ledger::Note(const std::string& what) {
  // The first few reasons are enough to debug a failing run; the
  // counters carry the totals.
  if (++notes_ <= 20) std::fprintf(stderr, "dtbench: %s\n", what.c_str());
}

void Ledger::Failed(const std::string& what) {
  ++failed_;
  Note("failed: " + what);
}

void Ledger::Mismatch(const std::string& what) {
  ++mismatches_;
  Note("MISMATCH: " + what);
}

int Tracer::Begin(uint64_t trace_id, const char* name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({trace_id, name, NowNs(), 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int Tracer::Add(uint64_t trace_id, const char* name, int64_t start_ns,
                int64_t end_ns, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({trace_id, name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  // Children's intervals per parent, merged so overlapping children
  // are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] +=
        static_cast<double>(std::max<int64_t>(0, s.end_ns - s.start_ns - covered)) /
        1e9;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"trace\":" << s.trace_id << ",\"name\":\""
        << JsonEscape(s.name) << "\",\"start_us\":"
        << (s.start_ns - origin) / 1000.0
        << ",\"end_us\":" << (s.end_ns - origin) / 1000.0
        << ",\"parent\":" << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace dtb
