// The fti serve daemon: long-lived flow execution over a local socket.
//
// A Server owns one content-addressed design cache (cache/design_cache.hpp)
// and a util::TaskQueue of worker threads, and accepts jobs as
// newline-delimited JSON over an AF_UNIX stream socket.  Repeat
// submissions of the same kernel hit the cache and skip HLS compilation,
// linting and the XML round-trip entirely -- the whole point of keeping
// the process alive between runs.
//
// Wire protocol (docs/serve.md has the full reference):
//  * One request per connection: the client sends a single JSON object
//    terminated by '\n' (or EOF), the server replies with a single JSON
//    line and closes.  Requests carry a "cmd" member:
//      ping | verify | suite | lint | status | cancel | metrics | shutdown
//  * verify/suite/lint enqueue a Job on the worker queue.  With
//    "wait": true (the default) the connection blocks until the job
//    finishes and the reply carries the full result; "wait": false
//    replies immediately with the job id for later "status" polls.
//  * Every reply has "ok"; job replies add "job", "status"
//    (queued|running|done|error|cancelled), and -- once finished --
//    "exit_code" (the same 0/1/2/3/4 contract the CLI uses), captured
//    "output"/"errors" text, and "cache_hit" for verify.
//  * "cancel" flips the job's cooperative flag; flows notice at the next
//    stage boundary and the job lands in status "cancelled".
//  * "metrics" embeds a live obs registry snapshot (same schema as the
//    --metrics file) without disturbing running jobs.
//  * "shutdown" acknowledges, then the thread blocked in wait() tears
//    the daemon down: stop accepting, cancel unfinished jobs, drain the
//    queue, join every connection thread, unlink the socket.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fti/cache/design_cache.hpp"
#include "fti/util/thread_pool.hpp"

namespace fti::util {
struct JsonValue;
}  // namespace fti::util

namespace fti::serve {

struct ServerOptions {
  /// AF_UNIX socket path.  Bound fresh on start(); a stale file from a
  /// crashed daemon is removed first.  Kernel limit ~107 bytes.
  std::filesystem::path socket_path;
  /// Worker threads executing jobs (>= 1).
  std::uint32_t jobs = 2;
  /// Design-cache capacity in entries.
  std::uint32_t cache_entries = 64;
};

enum class JobState { kQueued, kRunning, kDone, kError, kCancelled };
const char* to_string(JobState state);

/// One queued/running/finished job.  `cancel` is the cooperative flag the
/// flows poll; everything below it is guarded by the server mutex.
struct Job {
  std::uint64_t id = 0;
  std::string kind;
  std::string name;
  std::atomic<bool> cancel{false};
  JobState state = JobState::kQueued;
  int exit_code = 2;
  bool cache_hit = false;
  std::string output;
  std::string errors;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept loop plus worker queue.
  /// Throws util::Error("serve", ...) when the socket cannot be bound.
  void start();
  /// Blocks until a shutdown request arrives (or request_shutdown() is
  /// called), then tears the daemon down.  Call from the thread that
  /// owns the server -- never from a connection handler.
  void wait();
  /// Marks the daemon for teardown and wakes wait().  Safe from any
  /// thread, including connection handlers.
  void request_shutdown();
  /// Full teardown; idempotent.  wait() calls this; tests may call it
  /// directly instead of wait().
  void shutdown();

  const std::filesystem::path& socket_path() const {
    return options_.socket_path;
  }
  cache::DesignCache& cache() { return cache_; }
  /// Jobs finished so far (done, error or cancelled); for tests.
  std::uint64_t finished_jobs() const;
  /// Connection handler threads not joined yet; for tests.
  std::size_t open_connections() const;

 private:
  void accept_loop();
  void handle_connection(int fd);
  std::string dispatch(const std::string& line);
  std::string submit_job(const std::string& kind, const util::JsonValue& doc);
  std::string job_reply(const std::shared_ptr<Job>& job) const;
  /// Enqueues `body` (the flow invocation) for `job` on the worker
  /// queue, wrapping it with state transitions and error capture.
  bool enqueue_job(const std::shared_ptr<Job>& job,
                   std::function<int(std::ostream&, std::ostream&, Job&)> body);

  ServerOptions options_;
  cache::DesignCache cache_;
  std::unique_ptr<util::TaskQueue> queue_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  /// One connection's handler thread; `finished` is its last write.
  struct Connection {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  /// Joins and drops the connections whose handler has returned.
  void reap_finished_connections();
  mutable std::mutex conns_mutex_;
  std::list<Connection> conns_;

  mutable std::mutex mutex_;
  std::condition_variable jobs_cv_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t finished_ = 0;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool torn_down_ = false;
};

/// Client half: connect to `socket_path`, send `request_line` (a '\n' is
/// appended), read the single-line reply until EOF and return it with the
/// trailing newline stripped.  Throws util::Error("serve", ...) when the
/// daemon is unreachable.
std::string request(const std::filesystem::path& socket_path,
                    const std::string& request_line);

}  // namespace fti::serve
