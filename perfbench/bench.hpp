// Shared pieces of the benchmark runner: run configuration, the result
// every workload fills in, latency/CPU/memory measurement, and the span
// recorder behind traced runs.
//
// Spans are recorded by this benchmark's own code around calls into the
// program's public functions; the program itself is not modified.  When
// tracing is off, Span is a flag test and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed amount of work (never a deadline): each workload
  /// turns it into a job count, so the same arguments always do the same
  /// work on any machine.
  std::uint32_t seconds = 10;
  bool trace = false;
  /// Per-run scratch directory (kernel files, object cache, socket).
  std::filesystem::path scratch;
  /// Repository root, for the checked-in example kernels.
  std::filesystem::path root;
  /// Where a traced run writes its Chrome trace.
  std::filesystem::path trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Exact counts that must repeat between runs with the same seed.
  std::map<std::string, std::uint64_t> counts;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed job and reports why on stderr (first few only).
  void fail(const std::string& why);
  /// Checks `value` against the first value recorded under `key`; a
  /// difference is a failed job (work that should repeat exactly did not).
  void expect_same(std::map<std::string, std::uint64_t>& seen,
                   const std::string& key, std::uint64_t value);
};

// ------------------------------------------------------------ measurement

/// Linear-interpolated percentile (q in [0, 1]) of `samples`.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// User+system CPU seconds of this process and of its reaped children
/// (the host compiler the compiled engine forks counts as children).
double cpu_seconds_total();
double cpu_seconds_children();
double peak_rss_mb();

/// Seconds on the steady clock since an arbitrary epoch.
double now_seconds();

/// A point in a timed loop: seconds, process CPU seconds (self plus
/// children) and jobs finished so far.
struct Mark {
  double t = 0;
  double cpu = 0;
  std::uint64_t jobs = 0;
};

inline Mark mark_now(std::uint64_t jobs) {
  return Mark{now_seconds(), cpu_seconds_total(), jobs};
}

/// Sets the end-to-end metrics every workload reports.  `marks` splits
/// the timed loop into windows (first mark at its start, one mark per
/// window end); `jobs_per_s` and `cpu_s_per_job` are the median over
/// the windows, so a burst of machine noise that slows a few windows
/// does not move them.  `latencies_ms` holds one sample per job.
void set_end_to_end(RunResult& result, double setup_s,
                    const std::vector<Mark>& marks,
                    const std::vector<double>& latencies_ms);

/// Samples process CPU time every few milliseconds on its own thread,
/// for loops whose jobs finish inside a library call (the fuzz
/// campaign): CPU at any instant is interpolated from the samples.
class CpuSampler {
 public:
  CpuSampler();
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// CPU seconds at steady-clock time `t` (now_seconds() scale).
  double cpu_at(double t) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<double, double>> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// An ostream that discards everything: flows print their tables here.
class NullStream : public std::ostream {
 public:
  NullStream() : std::ostream(&buffer_) {}

 private:
  struct Discard : std::streambuf {
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      return n;
    }
  };
  Discard buffer_;
};

// ----------------------------------------------------------------- spans

/// Turns span recording on for the rest of the process (before any
/// worker thread starts).
void enable_spans();

/// RAII span around one call into a layer.  `name` is the per-layer
/// metric it feeds ("compiler.parse_ms"); one span per stage per job.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::int64_t start_ns_ = 0;
  bool active_ = false;
};

struct SpanTotals {
  double total_ms = 0;
  std::uint64_t count = 0;
  double mean_ms() const { return count == 0 ? 0 : total_ms / count; }
};

/// Per-name totals over every span recorded so far, on every thread.
std::map<std::string, SpanTotals> span_totals();

/// Writes every recorded span as Chrome trace-event JSON, with the
/// per-layer metrics under "perLayer".
void write_chrome_trace(const std::filesystem::path& path,
                        const RunResult& result);

/// The per-layer metric names every traced run reports (zero where the
/// workload never enters the layer), with their units.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills every per-layer metric in ms from the spans of that name: the
/// mean duration of one span (each stage runs once per job).  Other
/// per-layer metrics not set yet are set to 0.
void set_span_metrics(RunResult& result);

}  // namespace perfbench
