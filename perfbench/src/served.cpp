#include "served.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

ServedProcess::ServedProcess(const std::string& binary, const std::vector<std::string>& args,
                             const std::vector<int>& cores, const std::string& log_path) {
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  // Truncate before forking: a stale log must not announce an old port.
  ::close(::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  const std::int64_t t0 = now_ns();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    if (!cores.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (const int c : cores) CPU_SET(c, &set);
      ::sched_setaffinity(0, sizeof set, &set);
    }
    const int log = ::open(log_path.c_str(), O_WRONLY | O_APPEND);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }

  // The daemon announces its port once both built-in models compiled.
  const std::string marker = "listening on 127.0.0.1:";
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("spi_served exited during start-up: " + read_file(log_path));
    }
    const std::string log = read_file(log_path);
    const std::size_t at = log.find(marker);
    if (at != std::string::npos && log.find('\n', at) != std::string::npos) {
      port_ = std::atoi(log.c_str() + at + marker.size());
      break;
    }
    if (now_ns() - t0 > 60'000'000'000) {
      stop();
      throw std::runtime_error("spi_served did not start within 60 s");
    }
    ::usleep(200);
  }
  HttpConn conn(port_);
  const HttpReply health = conn.get("/healthz");
  if (health.status != 200 || health.body != "ok\n") {
    stop();
    throw std::runtime_error("spi_served /healthz answered " + std::to_string(health.status));
  }
  ready_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
}

ServedProcess::~ServedProcess() { stop(); }

double ServedProcess::cpu_s() const {
  if (pid_ <= 0) return 0.0;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  double total = 0.0;
  while (const dirent* entry = ::readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
    double ns = 0.0;
    if (in >> ns) total += ns * 1e-9;
  }
  ::closedir(d);
  return total;
}

void ServedProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    ::usleep(5000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

bool take_response(std::string& inbox, HttpReply& reply) {
  const std::size_t head_end = inbox.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  const std::string_view head(inbox.data(), head_end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") throw std::runtime_error("malformed HTTP response");
  const int status = std::atoi(inbox.c_str() + head.find(' ') + 1);
  const std::size_t cl = head.find("Content-Length: ");
  if (cl == std::string_view::npos) throw std::runtime_error("HTTP response without Content-Length");
  const auto length = static_cast<std::size_t>(std::atoll(inbox.c_str() + cl + 16));
  const std::size_t total = head_end + 4 + length;
  if (inbox.size() < total) return false;
  reply.status = status;
  reply.body.assign(inbox, head_end + 4, length);
  inbox.erase(0, total);
  return true;
}

HttpConn::HttpConn(int port) : fd_(connect_local(port)) {
  timeval timeout{};
  timeout.tv_sec = 60;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
}

HttpConn::~HttpConn() {
  if (fd_ >= 0) ::close(fd_);
}

HttpReply HttpConn::roundtrip(std::string_view wire) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("send failed");
    }
    off += static_cast<std::size_t>(n);
  }
  HttpReply reply;
  char buf[64 * 1024];
  while (!take_response(inbox_, reply)) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("connection closed while waiting for a reply");
    }
    inbox_.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

HttpReply HttpConn::get(std::string_view path) {
  std::string wire = "GET ";
  wire += path;
  wire += " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  return roundtrip(wire);
}

OpenLoopClient::OpenLoopClient(int port, int connections) {
  for (int i = 0; i < connections; ++i) {
    fds_.push_back(connect_local(port));
    ::fcntl(fds_.back(), F_SETFL, ::fcntl(fds_.back(), F_GETFL) | O_NONBLOCK);
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (const int fd : fds_) ::close(fd);
}

std::vector<JobOutcome> OpenLoopClient::run(const std::vector<Burst>& schedule,
                                            const JobPool& pool, std::int64_t start_ns,
                                            std::int64_t drain_ns,
                                            std::vector<std::string>& errors) {
  struct ConnState {
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<std::size_t> pending;  ///< outcome indices awaiting replies
  };
  std::vector<ConnState> conns(fds_.size());
  std::vector<JobOutcome> outcomes;
  std::vector<std::size_t> first_of_burst;
  for (const Burst& b : schedule) {
    first_of_burst.push_back(outcomes.size());
    for (const std::uint32_t j : b.jobs) {
      JobOutcome o;
      o.due_ns = start_ns + b.due_ns;
      o.job = j;
      outcomes.push_back(o);
    }
  }

  std::vector<pollfd> pfds(fds_.size());
  std::size_t next = 0;
  std::size_t outstanding = 0;
  const std::int64_t end_ns =
      start_ns + (schedule.empty() ? 0 : schedule.back().due_ns) + drain_ns;
  char buf[64 * 1024];
  HttpReply reply;
  for (;;) {
    std::int64_t now = now_ns();
    while (next < schedule.size() && start_ns + schedule[next].due_ns <= now) {
      const Burst& b = schedule[next];
      ConnState& c = conns[static_cast<std::size_t>(b.conn)];
      for (std::size_t k = 0; k < b.jobs.size(); ++k) {
        const std::size_t idx = first_of_burst[next] + k;
        c.out += pool.jobs[b.jobs[k]].wire[static_cast<std::size_t>(b.conn)];
        c.pending.push_back(idx);
        outcomes[idx].sent_ns = now;
      }
      outstanding += b.jobs.size();
      ++next;
    }
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      ConnState& c = conns[i];
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(fds_[i], c.out.data() + c.out_off, c.out.size() - c.out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n <= 0) break;
        c.out_off += static_cast<std::size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (next == schedule.size() && outstanding == 0) break;
    if (now > end_ns) break;

    std::int64_t wait_ns = 1'000'000;
    if (next < schedule.size())
      wait_ns = std::min(wait_ns, std::max<std::int64_t>(0, start_ns + schedule[next].due_ns - now));
    for (std::size_t i = 0; i < fds_.size(); ++i)
      pfds[i] = {fds_[i], static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)), 0};
    const timespec ts{0, static_cast<long>(wait_ns)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      ConnState& c = conns[i];
      for (;;) {
        const ssize_t n = ::recv(fds_[i], buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) throw std::runtime_error("spi_served closed a job connection");
        break;
      }
      now = now_ns();
      while (take_response(c.in, reply)) {
        if (c.pending.empty()) throw std::runtime_error("reply without a request");
        JobOutcome& o = outcomes[c.pending.front()];
        c.pending.pop_front();
        --outstanding;
        o.done_ns = now;
        o.status = reply.status;
        const std::string why = check_job_reply(reply.status, reply.body, pool.jobs[o.job].expected);
        o.correct = why.empty();
        if (!o.correct && errors.size() < 8) errors.push_back("job " + std::to_string(o.job) + ": " + why);
      }
    }
  }
  return outcomes;
}

}  // namespace perfbench
