#include "fti/serve/serve.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <limits>
#include <sstream>

#include "fti/elab/engines.hpp"
#include "fti/flow/flow.hpp"
#include "fti/harness/suite_io.hpp"
#include "fti/obs/json.hpp"
#include "fti/util/json.hpp"
#include "fti/util/json_reader.hpp"

namespace fti::serve {
namespace {

/// Requests and replies are one line each; a raw read this large is a
/// protocol violation, not a real job.
constexpr std::size_t kMaxRequestBytes = 16u << 20;

util::Error protocol_error(const std::string& message) {
  return util::Error("serve", message);
}

std::string str_or(const util::JsonValue& doc, std::string_view key,
                   const std::string& fallback) {
  const util::JsonValue* value = doc.find(key);
  return value != nullptr ? value->as_string() : fallback;
}

std::uint64_t u64_or(const util::JsonValue& doc, std::string_view key,
                     std::uint64_t fallback) {
  const util::JsonValue* value = doc.find(key);
  return value != nullptr ? value->as_u64() : fallback;
}

/// u64_or for 32-bit fields: a value that does not fit is a protocol
/// error, never silently wrapped.
std::uint32_t u32_or(const util::JsonValue& doc, std::string_view key,
                     std::uint32_t fallback) {
  std::uint64_t value = u64_or(doc, key, fallback);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw protocol_error("\"" + std::string(key) + "\" value " +
                         std::to_string(value) + " is out of range");
  }
  return static_cast<std::uint32_t>(value);
}

bool bool_or(const util::JsonValue& doc, std::string_view key, bool fallback) {
  const util::JsonValue* value = doc.find(key);
  return value != nullptr ? value->as_bool() : fallback;
}

lint::Gate gate_or(const util::JsonValue& doc, lint::Gate fallback) {
  const util::JsonValue* value = doc.find("lint");
  if (value == nullptr) {
    return fallback;
  }
  std::optional<lint::Gate> gate = lint::gate_from_string(value->as_string());
  if (!gate) {
    throw protocol_error("unknown lint gate '" + value->as_string() +
                         "' (off|warn|error)");
  }
  return *gate;
}

std::string error_reply(const std::string& message) {
  return "{\"ok\": false, \"error\": \"" + util::json_escape(message) + "\"}";
}

/// JsonReport documents are multi-line; the wire protocol is one line
/// per reply, so structural newlines are dropped (string content is
/// already escaped, so this cannot corrupt values).
std::string single_line(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (char ch : json) {
    if (ch != '\n') {
      out += ch;
    }
  }
  return out;
}

/// Best-effort reply write.  MSG_NOSIGNAL (plus the SIG_IGN installed in
/// start()) keeps a client that disconnected mid-reply from killing the
/// daemon with SIGPIPE; EPIPE/ECONNRESET are soft per-connection
/// failures -- the job result stays queryable via "status".
bool write_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// True when a live daemon is listening on `path`.  connect() to a stale
/// socket file (crashed daemon) fails with ECONNREFUSED; success means a
/// listener exists.  A ping round-trip distinguishes "answers the
/// protocol" from "listening but wedged" for the error message.
bool daemon_alive(const std::string& path, bool* answered_ping) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  bool answered = false;
  if (write_all(fd, "{\"cmd\": \"ping\"}\n")) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 1000) > 0 && (pfd.revents & POLLIN) != 0) {
      char buffer[256];
      answered = ::read(fd, buffer, sizeof(buffer)) > 0;
    }
  }
  ::close(fd);
  if (answered_ping != nullptr) {
    *answered_ping = answered;
  }
  return true;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kError:
      return "error";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_entries) {
  if (options_.jobs == 0) {
    options_.jobs = 1;
  }
}

Server::~Server() { shutdown(); }

void Server::start() {
  elab::register_builtin_engines();
  // The daemon always records metrics: "metrics" requests return the
  // live registry, and a one-shot enable flag would miss early jobs.
  obs::set_enabled(true);
  // A client that closes its socket before the reply lands must not
  // take the daemon down; writes report EPIPE instead (see write_all).
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw protocol_error("socket(): " + std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = options_.socket_path.string();
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw protocol_error("socket path too long (" + std::to_string(path.size()) +
                         " bytes, limit " +
                         std::to_string(sizeof(addr.sun_path) - 1) + "): " +
                         path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // A stale socket file from a crashed daemon would make bind() fail,
  // but blindly unlinking would hijack a LIVE daemon's socket (its
  // listener keeps running, unreachable, while we take the path).
  // Probe first: only a refused connection marks the file stale.
  bool answered = false;
  if (daemon_alive(path, &answered)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw protocol_error("another daemon is already serving '" + path +
                         "' (ping " +
                         (answered ? "answered" : "not answered") +
                         "); refusing to start");
  }
  ::unlink(path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw protocol_error("bind('" + path +
                         "'): " + std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    ::unlink(path.c_str());
    listen_fd_ = -1;
    throw protocol_error("listen('" + path +
                         "'): " + std::string(std::strerror(errno)));
  }
  queue_ = std::make_unique<util::TaskQueue>(options_.jobs);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::request_shutdown() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stop_requested_ = true;
  stop_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_; });
  }
  shutdown();
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (torn_down_) {
      return;
    }
    torn_down_ = true;
    stop_requested_ = true;
    stop_cv_.notify_all();
  }
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unfinished jobs get their cooperative flag set so queued tasks drain
  // quickly (the flows throw CancelledError at the next stage boundary).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kQueued || job->state == JobState::kRunning) {
        job->cancel.store(true, std::memory_order_release);
      }
    }
  }
  if (queue_) {
    queue_->stop_and_join();
    queue_.reset();
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (std::thread& thread : conns) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.string().c_str());
  }
}

std::uint64_t Server::finished_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) {
      continue;  // timeout or EINTR; re-check the stop flag
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void Server::handle_connection(int fd) {
  std::string line;
  char buffer[4096];
  bool overflow = false;
  while (line.find('\n') == std::string::npos) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // EOF without newline still terminates the request
    }
    line.append(buffer, static_cast<std::size_t>(n));
    if (line.size() > kMaxRequestBytes) {
      overflow = true;
      break;
    }
  }
  std::string reply;
  if (overflow) {
    reply = error_reply("request exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes");
  } else {
    if (std::size_t nl = line.find('\n'); nl != std::string::npos) {
      line.resize(nl);
    }
    reply = dispatch(line);
  }
  write_all(fd, reply + "\n");
  ::close(fd);
}

std::string Server::dispatch(const std::string& line) {
  try {
    util::JsonValue doc = util::parse_json(line);
    if (!doc.is_object()) {
      throw protocol_error("request must be a JSON object");
    }
    const std::string cmd = doc.at("cmd").as_string();
    if (cmd == "ping") {
      return "{\"ok\": true, \"reply\": \"pong\"}";
    }
    if (cmd == "metrics") {
      util::JsonReport report =
          obs::metrics_report(obs::Registry::instance().snapshot(), "serve");
      return "{\"ok\": true, \"snapshot\": " + single_line(report.to_string()) +
             "}";
    }
    if (cmd == "shutdown") {
      request_shutdown();
      return "{\"ok\": true, \"status\": \"stopping\"}";
    }
    if (cmd == "status" || cmd == "cancel") {
      std::uint64_t id = doc.at("job").as_u64();
      std::shared_ptr<Job> job;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(id);
        if (it != jobs_.end()) {
          job = it->second;
        }
      }
      if (!job) {
        throw protocol_error("unknown job " + std::to_string(id));
      }
      if (cmd == "cancel") {
        job->cancel.store(true, std::memory_order_release);
      }
      return job_reply(job);
    }
    if (cmd == "verify" || cmd == "suite" || cmd == "lint") {
      return submit_job(cmd, doc);
    }
    throw protocol_error("unknown cmd '" + cmd + "'");
  } catch (const util::Error& error) {
    return error_reply(error.what());
  }
}

std::string Server::job_reply(const std::shared_ptr<Job>& job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string reply = "{\"ok\": true, \"job\": " + std::to_string(job->id) +
                      ", \"kind\": \"" + util::json_escape(job->kind) +
                      "\", \"name\": \"" + util::json_escape(job->name) +
                      "\", \"status\": \"" + to_string(job->state) + "\"";
  if (job->state == JobState::kDone || job->state == JobState::kError ||
      job->state == JobState::kCancelled) {
    reply += ", \"exit_code\": " + std::to_string(job->exit_code);
    reply += ", \"cache_hit\": ";
    reply += job->cache_hit ? "true" : "false";
    reply += ", \"output\": \"" + util::json_escape(job->output) + "\"";
    reply += ", \"errors\": \"" + util::json_escape(job->errors) + "\"";
  }
  reply += "}";
  return reply;
}

bool Server::enqueue_job(
    const std::shared_ptr<Job>& job,
    std::function<int(std::ostream&, std::ostream&, Job&)> body) {
  return queue_->submit([this, job, body = std::move(body)] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->state = JobState::kRunning;
    }
    std::ostringstream out;
    std::ostringstream err;
    JobState final_state = JobState::kDone;
    int exit_code = 2;
    try {
      exit_code = body(out, err, *job);
    } catch (const util::CancelledError&) {
      final_state = JobState::kCancelled;
    } catch (const util::Error& error) {
      final_state = JobState::kError;
      err << error.what() << "\n";
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->state = final_state;
      job->exit_code = exit_code;
      job->output = out.str();
      job->errors += err.str();
      ++finished_;
    }
    jobs_cv_.notify_all();
  });
}

std::string Server::submit_job(const std::string& kind,
                               const util::JsonValue& doc) {
  auto job = std::make_shared<Job>();
  job->kind = kind;
  const bool wait = bool_or(doc, "wait", true);

  std::function<int(std::ostream&, std::ostream&, Job&)> body;
  if (kind == "verify") {
    flow::VerifyRequest request;
    request.test = harness::load_test_case(doc.at("kernel").as_string());
    request.engine = str_or(doc, "engine", request.engine);
    request.lint_gate = gate_or(doc, request.lint_gate);
    request.semantic = bool_or(doc, "semantic", request.semantic);
    request.lanes = u32_or(doc, "lanes", 1);
    request.lane_seed = u64_or(doc, "lane_seed", 1);
    job->name = str_or(doc, "name", request.test.name);
    body = [this, request = std::move(request)](std::ostream& out,
                                                std::ostream& err, Job& job) {
      flow::FlowContext context{&cache_, &job.cancel};
      flow::VerifyResult result = flow::run_verify(request, context, out, err);
      job.cache_hit = result.outcome.cache_hit;
      return result.exit_code;
    };
  } else if (kind == "suite") {
    flow::SuiteRequest request;
    request.suite_dir = doc.at("dir").as_string();
    request.engine = str_or(doc, "engine", request.engine);
    request.lint_gate = gate_or(doc, request.lint_gate);
    request.semantic = bool_or(doc, "semantic", request.semantic);
    request.lanes = u32_or(doc, "lanes", 1);
    request.lane_seed = u64_or(doc, "lane_seed", 1);
    request.jobs = u32_or(doc, "jobs", 1);
    request.name = str_or(doc, "name", request.suite_dir.filename().string());
    job->name = request.name;
    body = [this, request = std::move(request)](std::ostream& out,
                                                std::ostream& err, Job& job) {
      flow::FlowContext context{&cache_, &job.cancel};
      return flow::run_suite(request, context, out, err).exit_code;
    };
  } else {
    flow::LintRequest request;
    const util::JsonValue& inputs = doc.at("inputs");
    if (!inputs.is_array() || inputs.items.empty()) {
      throw protocol_error("lint requires a non-empty \"inputs\" array");
    }
    for (const util::JsonValue& item : inputs.items) {
      request.inputs.emplace_back(item.as_string());
    }
    request.semantic = bool_or(doc, "semantic", request.semantic);
    request.baseline_path = str_or(doc, "baseline", "");
    job->name = request.inputs.front().string();
    body = [this, request = std::move(request)](std::ostream& out,
                                                std::ostream& err, Job& job) {
      flow::FlowContext context{&cache_, &job.cancel};
      return flow::run_lint(request, context, out, err).exit_code;
    };
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->id = next_job_id_++;
    jobs_.emplace(job->id, job);
  }
  if (!enqueue_job(job, std::move(body))) {
    throw protocol_error("daemon is shutting down");
  }
  if (wait) {
    std::unique_lock<std::mutex> lock(mutex_);
    jobs_cv_.wait(lock, [&job] {
      return job->state == JobState::kDone || job->state == JobState::kError ||
             job->state == JobState::kCancelled;
    });
  }
  return job_reply(job);
}

}  // namespace fti::serve
