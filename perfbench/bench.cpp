#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fti/util/json.hpp"

namespace perfbench {

void RunResult::fail(const std::string& why) {
  static std::atomic<int> reported{0};
  ++failed;
  if (reported.fetch_add(1) < 10) {
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }
}

void RunResult::expect_same(std::map<std::string, std::uint64_t>& seen,
                            const std::string& key, std::uint64_t value) {
  auto [it, inserted] = seen.emplace(key, value);
  if (!inserted && it->second != value) {
    fail(key + " changed between repeats of the same job: " +
         std::to_string(it->second) + " then " + std::to_string(value));
  }
}

// ------------------------------------------------------------ measurement

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double position = q * static_cast<double>(samples.size() - 1);
  std::size_t below = static_cast<std::size_t>(position);
  std::size_t above = std::min(below + 1, samples.size() - 1);
  double fraction = position - static_cast<double>(below);
  return samples[below] + (samples[above] - samples[below]) * fraction;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

namespace {

double rusage_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

double cpu_seconds_total() {
  return rusage_seconds(RUSAGE_SELF) + rusage_seconds(RUSAGE_CHILDREN);
}

double cpu_seconds_children() { return rusage_seconds(RUSAGE_CHILDREN); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_end_to_end(RunResult& result, double setup_s,
                    const std::vector<Mark>& marks,
                    const std::vector<double>& latencies_ms) {
  // The highest percentile reported must leave ten samples beyond it.
  if (latencies_ms.size() < 100) {
    throw std::runtime_error("only " + std::to_string(latencies_ms.size()) +
                             " latency samples; p90 needs at least 100");
  }
  std::vector<double> rates;
  std::vector<double> cpu_per_job;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    double jobs = static_cast<double>(marks[i].jobs - marks[i - 1].jobs);
    double wall = marks[i].t - marks[i - 1].t;
    if (jobs > 0 && wall > 0) {
      rates.push_back(jobs / wall);
      cpu_per_job.push_back((marks[i].cpu - marks[i - 1].cpu) / jobs);
    }
  }
  if (rates.size() < 5) {
    throw std::runtime_error("timed loop split into only " +
                             std::to_string(rates.size()) + " windows");
  }
  result.set("setup_s", setup_s, "s");
  result.set("jobs_per_s", median(rates), "1/s");
  result.set("job_p50_ms", percentile(latencies_ms, 0.5), "ms");
  result.set("job_p90_ms", percentile(latencies_ms, 0.9), "ms");
  result.set("cpu_s_per_job", median(cpu_per_job), "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
}

CpuSampler::CpuSampler()
    : thread_([this] {
        while (!stop_.load()) {
          double t = now_seconds();
          double cpu = cpu_seconds_total();
          {
            std::lock_guard<std::mutex> lock(mutex_);
            samples_.emplace_back(t, cpu);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

CpuSampler::~CpuSampler() {
  stop_.store(true);
  thread_.join();
}

double CpuSampler::cpu_at(double t) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto after = std::lower_bound(
      samples_.begin(), samples_.end(), std::make_pair(t, -1.0));
  if (after == samples_.begin()) {
    return samples_.empty() ? 0.0 : samples_.front().second;
  }
  if (after == samples_.end()) {
    return samples_.back().second;
  }
  auto before = after - 1;
  double fraction = (t - before->first) / (after->first - before->first);
  return before->second + (after->second - before->second) * fraction;
}

// ----------------------------------------------------------------- spans

namespace {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint32_t depth;
};

struct ThreadSpans {
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::mutex mutex;  // the owning thread appends, readers copy
  std::vector<SpanRecord> records;
};

std::atomic<bool> g_spans_enabled{false};
std::mutex g_threads_mutex;
std::vector<std::shared_ptr<ThreadSpans>> g_threads;

ThreadSpans& this_thread_spans() {
  thread_local std::shared_ptr<ThreadSpans> spans = [] {
    auto created = std::make_shared<ThreadSpans>();
    std::lock_guard<std::mutex> lock(g_threads_mutex);
    created->tid = static_cast<std::uint32_t>(g_threads.size() + 1);
    g_threads.push_back(created);
    return created;
  }();
  return *spans;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool spans_enabled() { return g_spans_enabled.load(std::memory_order_relaxed); }

}  // namespace

void enable_spans() { g_spans_enabled.store(true); }

Span::Span(std::string name) {
  if (!spans_enabled()) {
    return;
  }
  active_ = true;
  name_ = std::move(name);
  ++this_thread_spans().depth;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  std::int64_t end = now_ns();
  ThreadSpans& spans = this_thread_spans();
  --spans.depth;
  std::lock_guard<std::mutex> lock(spans.mutex);
  spans.records.push_back(
      SpanRecord{std::move(name_), start_ns_, end - start_ns_, spans.depth});
}

std::map<std::string, SpanTotals> span_totals() {
  std::map<std::string, SpanTotals> totals;
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& thread : g_threads) {
    std::lock_guard<std::mutex> thread_lock(thread->mutex);
    for (const SpanRecord& record : thread->records) {
      SpanTotals& entry = totals[record.name];
      entry.total_ms += static_cast<double>(record.dur_ns) * 1e-6;
      ++entry.count;
    }
  }
  return totals;
}

void write_chrome_trace(const std::filesystem::path& path,
                        const RunResult& result) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  std::int64_t epoch = INT64_MAX;
  {
    std::lock_guard<std::mutex> lock(g_threads_mutex);
    for (const auto& thread : g_threads) {
      std::lock_guard<std::mutex> thread_lock(thread->mutex);
      for (const SpanRecord& record : thread->records) {
        epoch = std::min(epoch, record.start_ns);
      }
    }
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const char* sep = "\n";
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& thread : g_threads) {
    std::lock_guard<std::mutex> thread_lock(thread->mutex);
    for (const SpanRecord& record : thread->records) {
      out << sep << "{\"name\": \"" << fti::util::json_escape(record.name)
          << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": "
          << static_cast<double>(record.start_ns - epoch) * 1e-3
          << ", \"dur\": " << static_cast<double>(record.dur_ns) * 1e-3
          << ", \"pid\": 1, \"tid\": " << thread->tid
          << ", \"args\": {\"depth\": " << record.depth << "}}";
      sep = ",\n";
    }
  }
  out << "\n], \"perLayer\": {";
  sep = "\n";
  for (const auto& [name, metric] : result.metrics) {
    out << sep << "\"" << fti::util::json_escape(name) << "\": {\"value\": "
        << metric.value << ", \"unit\": \"" << metric.unit << "\"}";
    sep = ",\n";
  }
  out << "\n}}\n";
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"compiler.parse_ms", "ms"},
      {"compiler.sema_ms", "ms"},
      {"compiler.hls_ms", "ms"},
      {"compiler.ir_nodes", "count"},
      {"lint.structural_ms", "ms"},
      {"lint.dataflow_ms", "ms"},
      {"lint.findings", "count"},
      {"xml.roundtrip_ms", "ms"},
      {"xml.bytes", "count"},
      {"codegen.artifacts_ms", "ms"},
      {"codegen.lines", "count"},
      {"codegen.cpp_ms", "ms"},
      {"compiled.cxx_ms", "ms"},
      {"compiled.cxx_cpu_share", "ratio"},
      {"so_store.hits", "count"},
      {"compiled.fallbacks", "count"},
      {"elab.schedule_ms", "ms"},
      {"elab.sim_ms", "ms"},
      {"elab.cycles", "count"},
      {"golden.interp_ms", "ms"},
      {"fuzz.generate_ms", "ms"},
      {"fuzz.lane_ms.kernel", "ms"},
      {"fuzz.lane_ms.reference", "ms"},
      {"fuzz.lane_ms.naive", "ms"},
      {"fuzz.lane_ms.levelized", "ms"},
      {"fuzz.lane_ms.batched", "ms"},
      {"fuzz.lane_ms.compiled", "ms"},
      {"fuzz.lane_ms.roundtrip", "ms"},
      {"fuzz.lane_check_ms", "ms"},
      {"fuzz.divergences", "count"},
      {"cache.lookup_ms", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.insert_ms", "ms"},
      {"serve.rtt_ms", "ms"},
      {"flow.verify_warm_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"harness.compare_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kMetrics;
}

void set_span_metrics(RunResult& result) {
  std::map<std::string, SpanTotals> totals = span_totals();
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (unit == "ms") {
      auto it = totals.find(name);
      result.set(name, it == totals.end() ? 0.0 : it->second.mean_ms(), unit);
    } else if (result.metrics.find(name) == result.metrics.end()) {
      result.set(name, 0.0, unit);
    }
  }
}

}  // namespace perfbench
