// The fti serve daemon, exercised in-process over its real AF_UNIX
// socket: protocol round-trips, warm resubmission through the design
// cache, job lifecycle (status/cancel) and clean shutdown.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <regex>
#include <thread>

#include "fti/serve/serve.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/json_reader.hpp"

namespace fti::serve {
namespace {

std::filesystem::path unique_socket(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("fti_test_" + tag + "_" + std::to_string(::getpid()) + ".sock");
}

std::filesystem::path kernel_path(const char* name) {
  // tests/data is FTI_TEST_DATA_DIR; the sample kernels live next to it
  // in examples/.
  return std::filesystem::path(FTI_TEST_DATA_DIR).parent_path().parent_path() /
         "examples" / "kernels" / name;
}

/// Masks every decimal number (the wall-clock fields -- cycle and event
/// counts are integers and stay intact), so two reports can be compared
/// byte-for-byte modulo timing.
std::string mask_wall_clock(const std::string& text) {
  static const std::regex decimal("[0-9]+\\.[0-9]+");
  return std::regex_replace(text, decimal, "#");
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.socket_path = unique_socket("serve");
    options.jobs = 2;
    options.cache_entries = 8;
    server_ = std::make_unique<Server>(options);
    server_->start();
  }

  void TearDown() override {
    server_->shutdown();
    EXPECT_FALSE(std::filesystem::exists(server_->socket_path()));
    server_.reset();
  }

  util::JsonValue roundtrip(const std::string& line) {
    return util::parse_json(request(server_->socket_path(), line));
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PingPongs) {
  util::JsonValue reply = roundtrip("{\"cmd\": \"ping\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reply").as_string(), "pong");
}

TEST_F(ServeTest, MalformedAndUnknownRequestsFailSoftly) {
  EXPECT_FALSE(roundtrip("this is not json").at("ok").as_bool());
  EXPECT_FALSE(roundtrip("{\"cmd\": \"frobnicate\"}").at("ok").as_bool());
  EXPECT_FALSE(roundtrip("{\"no_cmd\": 1}").at("ok").as_bool());
  util::JsonValue status = roundtrip("{\"cmd\": \"status\", \"job\": 999}");
  EXPECT_FALSE(status.at("ok").as_bool());
  EXPECT_NE(status.at("error").as_string().find("unknown job"),
            std::string::npos);
}

TEST_F(ServeTest, LanesAboveUint32AreAProtocolError) {
  // 2^32 + 1 does not fit the 32-bit lane count: refused, not wrapped to
  // a one-lane job.
  util::JsonValue reply = roundtrip(
      "{\"cmd\": \"verify\", \"kernel\": \"" +
      kernel_path("saxpy.k").string() + "\", \"lanes\": 4294967297}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("\"lanes\" value 4294967297"),
            std::string::npos)
      << reply.at("error").as_string();
}

TEST_F(ServeTest, WarmResubmissionHitsCacheWithIdenticalReport) {
  std::string submit = "{\"cmd\": \"verify\", \"kernel\": \"" +
                       kernel_path("saxpy.k").string() + "\"}";
  util::JsonValue cold = roundtrip(submit);
  ASSERT_TRUE(cold.at("ok").as_bool());
  EXPECT_EQ(cold.at("status").as_string(), "done");
  EXPECT_EQ(cold.at("exit_code").as_u64(), 0u);
  EXPECT_FALSE(cold.at("cache_hit").as_bool());

  util::JsonValue warm = roundtrip(submit);
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_EQ(warm.at("status").as_string(), "done");
  EXPECT_EQ(warm.at("exit_code").as_u64(), 0u);
  EXPECT_TRUE(warm.at("cache_hit").as_bool());

  // Byte-identical apart from wall-clock fields.
  EXPECT_EQ(mask_wall_clock(cold.at("output").as_string()),
            mask_wall_clock(warm.at("output").as_string()));
  EXPECT_GE(server_->cache().stats().hits, 1u);
}

TEST_F(ServeTest, SuiteJobRunsTheSampleSuite) {
  std::string dir = kernel_path("saxpy.k").parent_path().string();
  util::JsonValue reply = roundtrip(
      "{\"cmd\": \"suite\", \"dir\": \"" + dir + "\", \"jobs\": 2}");
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "done");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 0u);
  EXPECT_NE(reply.at("output").as_string().find("suite PASSED"),
            std::string::npos);
}

TEST_F(ServeTest, LintJobReportsFindingsAndExitCode) {
  std::string bad = (std::filesystem::path(FTI_TEST_DATA_DIR) / "lint" /
                     "bad_multidriver.xml")
                        .string();
  util::JsonValue reply = roundtrip(
      "{\"cmd\": \"lint\", \"inputs\": [\"" + bad + "\"]}");
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "done");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 3u);
}

TEST_F(ServeTest, AsyncSubmitStatusPollAndMetrics) {
  std::string submit = "{\"cmd\": \"verify\", \"kernel\": \"" +
                       kernel_path("saxpy.k").string() +
                       "\", \"wait\": false}";
  util::JsonValue queued = roundtrip(submit);
  ASSERT_TRUE(queued.at("ok").as_bool());
  std::uint64_t id = queued.at("job").as_u64();
  // wait:false replies before completion; poll until terminal.
  std::string status;
  for (int i = 0; i < 600; ++i) {
    util::JsonValue reply = roundtrip(
        "{\"cmd\": \"status\", \"job\": " + std::to_string(id) + "}");
    status = reply.at("status").as_string();
    if (status == "done" || status == "error" || status == "cancelled") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(status, "done");

  util::JsonValue metrics = roundtrip("{\"cmd\": \"metrics\"}");
  ASSERT_TRUE(metrics.at("ok").as_bool());
  const util::JsonValue& snapshot = metrics.at("snapshot");
  EXPECT_EQ(snapshot.at("snapshot").as_string(), "serve");
  bool saw_cache_counter = false;
  for (const util::JsonValue& metric : snapshot.at("metrics").items) {
    if (metric.at("name").as_string().rfind("cache.", 0) == 0) {
      saw_cache_counter = true;
    }
  }
  EXPECT_TRUE(saw_cache_counter);
}

TEST_F(ServeTest, CancelledQueuedJobNeverRuns) {
  // Saturate both workers plus the queue with suite jobs, then cancel
  // the queued one before a worker can pick it up.
  std::string dir = kernel_path("saxpy.k").parent_path().string();
  std::string suite =
      "{\"cmd\": \"suite\", \"dir\": \"" + dir + "\", \"wait\": false}";
  roundtrip(suite);
  roundtrip(suite);
  util::JsonValue queued = roundtrip(suite);
  std::uint64_t id = queued.at("job").as_u64();
  roundtrip("{\"cmd\": \"cancel\", \"job\": " + std::to_string(id) + "}");
  std::string status;
  for (int i = 0; i < 600; ++i) {
    util::JsonValue reply = roundtrip(
        "{\"cmd\": \"status\", \"job\": " + std::to_string(id) + "}");
    status = reply.at("status").as_string();
    if (status == "done" || status == "error" || status == "cancelled") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Cooperative cancel: the flag was set while the job sat in the queue
  // (or at the latest mid-run), so it must land in "cancelled" unless a
  // worker finished it before the flag arrived.
  EXPECT_TRUE(status == "cancelled" || status == "done") << status;
}

TEST_F(ServeTest, ShutdownRequestWakesWait) {
  std::thread waiter([this] { server_->wait(); });
  util::JsonValue reply = roundtrip("{\"cmd\": \"shutdown\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "stopping");
  waiter.join();
  // The daemon already tore down; a new client connection must fail.
  EXPECT_THROW(request(server_->socket_path(), "{\"cmd\": \"ping\"}"),
               util::Error);
}

/// Raw client socket with none of request()'s read-back machinery, for
/// simulating clients that vanish mid-conversation.
int raw_connect(const std::filesystem::path& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = socket_path.string();
  EXPECT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

TEST_F(ServeTest, ClientDisconnectMidResponseDoesNotKillTheDaemon) {
  // Submit a real synchronous job, then hang up before the reply can be
  // written: the worker finishes seconds later and its reply write hits
  // a dead socket.  Pre-fix this raised SIGPIPE and took the whole
  // daemon down; now it must be a soft per-connection failure.
  std::string submit = "{\"cmd\": \"verify\", \"kernel\": \"" +
                       kernel_path("saxpy.k").string() + "\"}\n";
  int fd = raw_connect(server_->socket_path());
  ASSERT_EQ(::send(fd, submit.data(), submit.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(submit.size()));
  ::shutdown(fd, SHUT_WR);
  ::close(fd);  // gone before the job completes, reply has no reader

  // The daemon must stay reachable while (and after) that orphaned job
  // completes, and must still take new work to a happy end state.
  util::JsonValue pong = roundtrip("{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.at("ok").as_bool());
  util::JsonValue redo = roundtrip(
      "{\"cmd\": \"verify\", \"kernel\": \"" +
      kernel_path("saxpy.k").string() + "\"}");
  ASSERT_TRUE(redo.at("ok").as_bool());
  EXPECT_EQ(redo.at("status").as_string(), "done");
  EXPECT_EQ(redo.at("exit_code").as_u64(), 0u);
}

/// Live threads of this process, the in-process daemon's included: the
/// entries of /proc/self/task.  A thread that has exited is gone from
/// it whether or not it was joined.
std::size_t live_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// Polls `holds` until it is true or ten seconds pass.
bool eventually(const std::function<bool()>& holds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!holds()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

TEST_F(ServeTest, FinishedConnectionsAreReaped) {
  // Each connection runs on its own thread.  200 sequential clients must
  // leave the daemon with as many live threads as one did (a handler
  // that never returns would hold one each), and its connection table
  // must drop every handler it has joined (an unjoined thread keeps its
  // stack mapping).  The last handler may still be winding down when
  // the loop ends, so both are polled for a while.
  ASSERT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
  ASSERT_TRUE(eventually([&] { return server_->open_connections() == 0; }));
  const std::size_t before = live_threads();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
  }
  EXPECT_TRUE(eventually([&] { return live_threads() <= before; }))
      << "live threads grew from " << before << " to " << live_threads();
  EXPECT_TRUE(eventually([&] { return server_->open_connections() == 0; }))
      << server_->open_connections() << " connection threads not reaped";
}

TEST_F(ServeTest, DeeplyNestedRequestLineFailsSoftly) {
  // One 400 KB line of nested JSON -- far under the request size cap --
  // used to overflow the request parser's stack and kill the daemon
  // with every tenant on it.  It must be one more malformed request.
  std::size_t deep = 200'000;
  util::JsonValue reply = roundtrip("{\"cmd\": " + std::string(deep, '[') +
                                    std::string(deep, ']') + "}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("nesting deeper than"),
            std::string::npos)
      << reply.at("error").as_string();
  util::JsonValue pong = roundtrip("{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(pong.at("reply").as_string(), "pong");
}

TEST_F(ServeTest, DeeplyNestedKernelFailsItsJobOnly) {
  // A kernel whose 50,000-term sum once overflowed a recursive walk of
  // its AST and took the daemon down with it: now the job fails with
  // the parser's typed error and the daemon keeps answering.
  std::filesystem::path kernel =
      std::filesystem::temp_directory_path() /
      ("fti_test_deep_" + std::to_string(::getpid()) + ".k");
  std::string sum = "y[0] = 1";
  for (int i = 1; i < 50'000; ++i) {
    sum += "+1";
  }
  util::write_file(kernel.string(),
                   "kernel deep(int y[1]) {\n" + sum + ";\n}\n");
  util::JsonValue reply = roundtrip("{\"cmd\": \"verify\", \"kernel\": \"" +
                                    kernel.string() + "\"}");
  std::filesystem::remove(kernel);
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "error");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 2u);
  util::JsonValue pong = roundtrip("{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(pong.at("reply").as_string(), "pong");
}

TEST_F(ServeTest, SecondDaemonOnALiveSocketRefusesToStart) {
  ServerOptions options;
  options.socket_path = server_->socket_path();
  Server second(options);
  try {
    second.start();
    FAIL() << "start() must refuse to hijack a live daemon's socket";
  } catch (const util::Error& error) {
    std::string message = error.what();
    EXPECT_NE(message.find("another daemon is already serving"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("ping answered"), std::string::npos) << message;
  }
  // The refusal must leave the running daemon untouched: socket file
  // still present, still answering.
  EXPECT_TRUE(std::filesystem::exists(server_->socket_path()));
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST(ServeServer, StaleSocketFileFromACrashedDaemonIsReclaimed) {
  std::filesystem::path path = unique_socket("stale");
  // Bind then close without unlinking -- the on-disk state a crashed
  // daemon leaves behind (file exists, connect() gets ECONNREFUSED).
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.string().size() + 1);
  ASSERT_EQ(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);
  ASSERT_TRUE(std::filesystem::exists(path));

  ServerOptions options;
  options.socket_path = path;
  options.jobs = 1;
  Server server(options);
  server.start();  // must reclaim the stale file, not refuse
  util::JsonValue pong =
      util::parse_json(request(path, "{\"cmd\": \"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  server.shutdown();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeClient, UnreachableDaemonThrows) {
  EXPECT_THROW(request(unique_socket("nothere"), "{\"cmd\": \"ping\"}"),
               util::Error);
}

TEST(ServeServer, SocketPathTooLongThrows) {
  ServerOptions options;
  options.socket_path =
      std::filesystem::temp_directory_path() / std::string(200, 'x');
  Server server(options);
  EXPECT_THROW(server.start(), util::Error);
}

}  // namespace
}  // namespace fti::serve
