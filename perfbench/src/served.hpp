/// \file served.hpp
/// The spi_served daemon as a child process, a blocking HTTP client for
/// control requests and POST /plan, and the open-loop job generator.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/// One spi_served process, pinned to `cores` (empty = unpinned). The
/// destructor stops it and waits until it has exited.
class ServedProcess {
 public:
  ServedProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::vector<int>& cores, const std::string& log_path);
  ~ServedProcess();
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// Seconds from spawn until /healthz answered (built-in models compiled).
  [[nodiscard]] double ready_s() const { return ready_s_; }
  /// On-CPU seconds of every thread of the daemon so far.
  [[nodiscard]] double cpu_s() const;
  /// SIGTERM, then wait (SIGKILL after a grace period).
  void stop();

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  double ready_s_ = 0.0;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

/// A blocking keep-alive connection to 127.0.0.1:port.
class HttpConn {
 public:
  explicit HttpConn(int port);
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Sends raw request bytes and reads one response. Throws on I/O error.
  HttpReply roundtrip(std::string_view wire);
  HttpReply get(std::string_view path);

 private:
  int fd_ = -1;
  std::string inbox_;
};

/// Pops one complete HTTP/1.1 response off the front of `inbox`; false
/// when it does not hold a whole one yet.
bool take_response(std::string& inbox, HttpReply& reply);

/// What happened to one scheduled job.
struct JobOutcome {
  std::int64_t due_ns = 0;   ///< absolute
  std::int64_t sent_ns = 0;  ///< when its burst was written
  std::int64_t done_ns = 0;  ///< when its reply was read (0 = never)
  std::uint32_t job = 0;
  int status = 0;
  bool correct = false;
};

/// The open-loop generator: one thread, `connections` keep-alive
/// connections. Every burst is written when it is due, whatever is still
/// outstanding; replies are matched in order per connection and checked
/// against the pool's expected bodies.
class OpenLoopClient {
 public:
  OpenLoopClient(int port, int connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Runs `schedule` (due times relative to `start_ns`), then waits up to
  /// `drain_ns` for the replies still outstanding. Outcomes are in
  /// schedule order. A failure description goes to `errors` per wrong
  /// reply (the first few only).
  std::vector<JobOutcome> run(const std::vector<Burst>& schedule, const JobPool& pool,
                              std::int64_t start_ns, std::int64_t drain_ns,
                              std::vector<std::string>& errors);

 private:
  std::vector<int> fds_;
};

}  // namespace perfbench
