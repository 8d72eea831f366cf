// serve-warm: an in-process `fti serve` daemon with two workers, its
// design cache prefilled during set-up with one cold verify of each
// kernel in a small simulation-heavy mix.  Two closed-loop clients then
// send a fixed number of verify requests each: batched engine, several
// lanes, a fresh lane seed per request -- new stimulus on a cached
// design.  The elab engines, the golden interpreter, the cache hit path
// and serve do the work; compiler back end, lint, XML and codegen idle.
// The cache's miss-and-insert path is paid in set-up (setup_s).
#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fti/flow/flow.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/harness/suite_io.hpp"
#include "fti/serve/serve.hpp"
#include "fti/util/json.hpp"
#include "fti/util/json_reader.hpp"
#include "kernels.hpp"
#include "stages.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kServerWorkers = 2;
constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kLanes = 8;
constexpr const char* kEngine = "batched";
/// Requests per requested second over both clients (about 32/s on a
/// 4-core x86 container); at least 200 so p90 has ten samples beyond it
/// even in a traced run's halves.
constexpr std::uint64_t kRequestsPerSecond = 32;
constexpr std::uint64_t kMinRequests = 200;
constexpr int kSetupRepeats = 3;
/// Completions per throughput window (see set_end_to_end).
constexpr std::uint64_t kWindow = 20;

struct Daemon {
  std::unique_ptr<fti::serve::Server> server;
  std::vector<fs::path> kernels;
};

std::string verify_line(const fs::path& kernel, std::uint64_t lane_seed) {
  return "{\"cmd\": \"verify\", \"kernel\": \"" +
         fti::util::json_escape(kernel.string()) + "\", \"engine\": \"" +
         kEngine + "\", \"lanes\": " + std::to_string(kLanes) +
         ", \"lane_seed\": " + std::to_string(lane_seed) + "}";
}

/// Empty when the reply is a passing verify with the expected cache
/// outcome; otherwise why not.
std::string check_reply(const std::string& reply, bool expect_hit) {
  fti::util::JsonValue doc = fti::util::parse_json(reply);
  const fti::util::JsonValue* hit = doc.find("cache_hit");
  const fti::util::JsonValue* output = doc.find("output");
  if (!doc.at("ok").as_bool() || doc.at("status").as_string() != "done" ||
      doc.at("exit_code").as_u64() != 0 || hit == nullptr ||
      hit->as_bool() != expect_hit || output == nullptr ||
      output->as_string().rfind("PASS", 0) != 0) {
    return "unexpected reply: " + reply.substr(0, 300);
  }
  return "";
}

/// Starts a daemon on a fresh socket and fills its cache with one cold
/// verify per kernel -- everything before the first timed request.
Daemon start_daemon(const RunConfig& config, int repeat) {
  fs::path dir = config.scratch / ("serve-" + std::to_string(repeat));
  Daemon daemon;
  daemon.kernels = write_kernels(serve_kernels(config.seed), dir / "kernels");
  fti::serve::ServerOptions options;
  options.socket_path = dir / "fti.sock";
  options.jobs = kServerWorkers;
  daemon.server = std::make_unique<fti::serve::Server>(options);
  daemon.server->start();
  for (const fs::path& kernel : daemon.kernels) {
    std::string why = check_reply(
        fti::serve::request(options.socket_path, verify_line(kernel, 1)),
        /*expect_hit=*/false);
    if (!why.empty()) {
      throw std::runtime_error("prefill of " + kernel.string() + ": " + why);
    }
  }
  return daemon;
}

/// One client's fixed request sequence: every kernel equally often in a
/// seeded order, each request with its own lane seed.
struct Request {
  std::size_t kernel;
  std::uint64_t lane_seed;
};

std::vector<Request> client_requests(std::uint64_t seed, std::uint32_t client,
                                     std::uint64_t count,
                                     std::size_t kernels) {
  std::vector<std::size_t> order = stratified_order(
      kernels, (count + kernels - 1) / kernels, seed * 31 + client);
  std::vector<Request> requests;
  for (std::uint64_t i = 0; i < count; ++i) {
    // Lane seed 1 is the prefill's; every timed request draws its own.
    std::uint64_t draw = fti::fuzz::Rng::derive(seed, client * count + i);
    requests.push_back({order[i], 2 + draw % (1ull << 40)});
  }
  return requests;
}

struct Phase {
  std::vector<double> latencies_ms;
  std::vector<Mark> marks;  ///< one per kWindow completions
  double wall_s = 0;
  std::uint64_t requests = 0;
};

/// Runs every client's requests [begin, end) concurrently, closed loop.
Phase run_clients(const Daemon& daemon,
                  const std::vector<std::vector<Request>>& plans,
                  std::size_t begin, std::size_t end, RunResult& result,
                  std::mutex& result_mutex) {
  Phase phase;
  std::vector<std::vector<double>> latencies(plans.size());
  std::uint64_t completed = 0;
  double start = now_seconds();
  phase.marks.push_back(mark_now(0));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = begin; i < end; ++i) {
        const Request& request = plans[c][i];
        std::string line =
            verify_line(daemon.kernels[request.kernel], request.lane_seed);
        double sent = now_seconds();
        std::string reply;
        std::string why;
        try {
          Span span("serve.rtt_ms");
          reply = fti::serve::request(daemon.server->socket_path(), line);
        } catch (const std::exception& error) {
          why = error.what();
        }
        latencies[c].push_back((now_seconds() - sent) * 1e3);
        if (why.empty()) {
          why = check_reply(reply, /*expect_hit=*/true);
        }
        std::lock_guard<std::mutex> lock(result_mutex);
        ++result.attempted;
        if (++completed % kWindow == 0) {
          phase.marks.push_back(mark_now(completed));
        }
        if (!why.empty()) {
          result.fail(daemon.kernels[request.kernel].filename().string() +
                      ": " + why);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  phase.wall_s = now_seconds() - start;
  for (const auto& samples : latencies) {
    phase.latencies_ms.insert(phase.latencies_ms.end(), samples.begin(),
                              samples.end());
  }
  phase.requests = phase.latencies_ms.size();
  return phase;
}

}  // namespace

RunResult run_serve_warm(const RunConfig& config) {
  RunResult result;
  std::mutex result_mutex;
  std::vector<double> setups;
  Daemon daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon.server) {
      daemon.server->shutdown();
      daemon.server.reset();
    }
    double start = now_seconds();
    daemon = start_daemon(config, i);
    setups.push_back(now_seconds() - start);
  }
  std::uint64_t total =
      std::max(kMinRequests, kRequestsPerSecond * config.seconds);
  std::uint64_t per_client = total / kClients;
  std::vector<std::vector<Request>> plans;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    plans.push_back(
        client_requests(config.seed, c, per_client, daemon.kernels.size()));
  }
  fti::cache::DesignCache::Stats before = daemon.server->cache().stats();

  if (!config.trace) {
    Phase phase =
        run_clients(daemon, plans, 0, per_client, result, result_mutex);
    fti::cache::DesignCache::Stats after = daemon.server->cache().stats();
    if (after.hits - before.hits != phase.requests ||
        after.misses != before.misses) {
      result.fail("daemon cache: " + std::to_string(after.hits - before.hits) +
                  " hits, " + std::to_string(after.misses - before.misses) +
                  " misses for " + std::to_string(phase.requests) +
                  " requests");
    }
    result.counts["serve.requests"] = phase.requests;
    set_end_to_end(result, median(setups), phase.marks, phase.latencies_ms);
    daemon.server->shutdown();
    return result;
  }

  // Traced: half the requests untraced, half with a span around each
  // round trip (trace.overhead), then the same requests in-process.
  std::vector<fti::harness::TestCase> tests;
  for (const fs::path& kernel : daemon.kernels) {
    tests.push_back(fti::harness::load_test_case(kernel));
  }
  // Two benchmark-owned warm caches: one for flow::run_verify (filled
  // through the flow, keyed as the harness keys), one for the staged
  // replica (filled stage by stage, with a span around each insert).
  fti::cache::DesignCache flow_cache;
  fti::cache::DesignCache staged_cache;
  NullStream sink;
  auto verify_request = [&](std::size_t kernel, std::uint64_t lane_seed) {
    fti::flow::VerifyRequest request;
    request.test = tests[kernel];
    request.engine = kEngine;
    request.lanes = kLanes;
    request.lane_seed = lane_seed;
    return request;
  };
  // Untraced half first, then spans on for everything after it.
  std::size_t half = per_client / 2;
  Phase untraced = run_clients(daemon, plans, 0, half, result, result_mutex);
  enable_spans();
  for (std::size_t k = 0; k < tests.size(); ++k) {
    fti::flow::run_verify(verify_request(k, 1), {&flow_cache}, sink, sink);
    staged_cache_fill(tests[k], staged_cache);
  }
  Phase traced =
      run_clients(daemon, plans, half, per_client, result, result_mutex);
  fti::cache::DesignCache::Stats after = daemon.server->cache().stats();
  std::uint64_t hits = after.hits - before.hits;
  std::uint64_t lookups = hits + (after.misses - before.misses);
  daemon.server->shutdown();

  // A quarter of one client's requests again in-process: through
  // flow::run_verify on a warm cache (flow.verify_warm_ms), then stage by
  // stage.
  std::uint64_t cycles = 0;
  std::vector<Request> sample(plans[0].begin(),
                              plans[0].begin() + per_client / 4);
  for (const Request& request : sample) {
    {
      Span span("flow.verify_warm_ms");
      fti::flow::VerifyResult verify = fti::flow::run_verify(
          verify_request(request.kernel, request.lane_seed), {&flow_cache},
          sink, sink);
      if (verify.exit_code != 0 || !verify.outcome.cache_hit) {
        result.fail("in-process warm verify: " + verify.outcome.message);
      }
    }
    StagedVerify staged =
        staged_warm_verify(tests[request.kernel], staged_cache, kEngine,
                           kLanes, request.lane_seed);
    if (!staged.passed) {
      result.fail("staged warm verify: " + staged.message);
    }
    cycles += staged.cycles;
  }

  result.counts["elab.cycles"] = cycles;
  result.set("elab.cycles", static_cast<double>(cycles), "count");
  result.set("cache.hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups,
             "ratio");
  if (hits != lookups) {
    result.fail("daemon cache missed in the timed loop");
  }
  set_span_metrics(result);
  std::map<std::string, SpanTotals> totals = span_totals();
  result.set("serve.overhead_ms",
             totals["serve.rtt_ms"].mean_ms() -
                 totals["flow.verify_warm_ms"].mean_ms(),
             "ms");
  double staged_ms = 0;
  for (const char* stage :
       {"compiler.parse_ms", "compiler.sema_ms", "cache.lookup_ms",
        "golden.interp_ms", "elab.sim_ms", "harness.compare_ms"}) {
    staged_ms += totals[stage].total_ms;
  }
  result.set("trace.coverage",
             staged_ms / totals["flow.verify_warm_ms"].total_ms, "ratio");
  result.set("trace.overhead",
             (traced.requests / traced.wall_s) /
                 (untraced.requests / untraced.wall_s),
             "ratio");
  return result;
}

}  // namespace perfbench
