/// \file harness.h
/// \brief Measurement plumbing shared by every workload: clocks,
/// medians and the tail rule, the metric table, in-memory span tracing
/// and the run's correctness ledger.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dtb {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty sample.
double Median(std::vector<double> v);

/// \brief The tail of a latency sample: the highest percentile that
/// still has at least `kTailBeyond` samples strictly above it. For n
/// sorted samples that is the value at rank n - 1 - kTailBeyond, which
/// sits at percentile 100 * (n - kTailBeyond) / n.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  /// False when the sample is too small to have a tail (n <= 10).
  bool ok = false;
};
inline constexpr size_t kTailBeyond = 10;
Tail TailOf(std::vector<double> v);

/// \brief A latency sample cut, in time order, into windows of at
/// least `kWindowSamples` samples: the reported median and tail are the
/// means of the windows' medians and tails. A burst of host noise moves
/// one window's share, not the whole tail; and where the work changes
/// along the run (an ingest stream turns from scoring-bound to
/// WAL-bound) the mean weighs each stretch by its length, where a
/// median over windows would jump from one stretch to the other.
struct Summary {
  double p50 = 0;
  Tail tail;  ///< mean window tail; `samples` is per window
  size_t windows = 0;
};
inline constexpr size_t kWindowSamples = 100;
Summary Summarize(const std::vector<double>& in_time_order);

/// Throughput over consecutive blocks of `block` completions (given
/// their completion times, seconds, in order): the median block rate.
double MedianRate(const std::vector<double>& done_s, size_t block);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// `[A-Za-z0-9_.-]+`, at most 64 characters.
bool ValidMetricName(const std::string& name);

/// `{"name": v, ...}`, every value with all its digits (a value that is
/// not finite prints as 0).
std::string ValuesJson(const std::map<std::string, double>& values);

/// \brief What a run attempted and what went wrong. A mismatch (a
/// wrong answer or a failed invariant) makes the run incorrect; a
/// refused or failed operation only counts as failed.
class Ledger {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Failed(const std::string& what);
  void Mismatch(const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return mismatches_ == 0; }

 private:
  void Note(const std::string& what);
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_ = 0;
  int notes_ = 0;
};

/// One traced call: requests share `trace_id`; `parent` indexes the
/// enclosing span (-1 for a root).
struct Span {
  uint64_t trace_id = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// \brief In-memory span recorder. Disabled tracers record nothing and
/// cost one branch per call. Single-threaded: the load generator and
/// the replays all run on the calling thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its handle (-1 when disabled).
  int Begin(uint64_t trace_id, const char* name, int parent = -1);
  void End(int span);
  /// Records a span whose bounds the caller already measured.
  int Add(uint64_t trace_id, const char* name, int64_t start_ns,
          int64_t end_ns, int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, seconds: each span's duration minus the part
  /// of it its children cover, summed by the layer (the name up to the
  /// first '.').
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as one JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op under a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, uint64_t trace_id, const char* name, int parent = -1)
      : tracer_(t), span_(t->Begin(trace_id, name, parent)) {}
  ~ScopedSpan() { tracer_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

std::string JsonEscape(const std::string& s);

}  // namespace dtb
