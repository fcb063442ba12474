#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Reads from `fd` into `buf` until a newline; false on EOF or timeout.
bool ReadLine(int fd, std::string* buf, std::string* line, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      *line = buf->substr(0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, left) <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

bool ReplyOk(const std::string& reply) { return reply.rfind("OK ", 0) == 0; }

/// Checks one reply against its line's expectation; returns "" or what is
/// wrong.
std::string Check(const Workload& w, const std::vector<Expected>& expected,
                  int line, const std::string& reply) {
  const std::string& text = w.pool[static_cast<size_t>(line)].text;
  if (!ReplyOk(reply)) return "error reply to \"" + text + "\": " + reply;
  const Expected& e = expected[static_cast<size_t>(line)];
  if (!e.payload.empty() && Payload(reply) != e.payload) {
    return "payload of \"" + text + "\" is \"" + Payload(reply) +
           "\", the in-process reference gives \"" + e.payload + "\"";
  }
  if (e.guarantee > 0.0) {
    const double subopt = std::atof(Field(reply, "subopt").c_str());
    // The reply prints subopt to 6 significant digits.
    if (subopt > e.guarantee * (1.0 + 1e-5)) {
      return "subopt " + Field(reply, "subopt") + " of \"" + text +
             "\" exceeds the MSO guarantee " + std::to_string(e.guarantee);
    }
  }
  return "";
}

std::map<std::string, int64_t> ParseStats(const std::string& reply) {
  std::map<std::string, int64_t> out;
  std::istringstream in(reply);
  std::string tok;
  in >> tok;  // "STATS"
  while (in >> tok) {
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      out[tok.substr(0, eq)] = std::atoll(tok.c_str() + eq + 1);
    }
  }
  return out;
}

}  // namespace

std::string Field(const std::string& reply, const std::string& key) {
  const std::string pat = " " + key + "=";
  const size_t at = reply.find(pat);
  if (at == std::string::npos) return "";
  const size_t from = at + pat.size();
  const size_t to = reply.find(' ', from);
  return reply.substr(from, to == std::string::npos ? std::string::npos
                                                    : to - from);
}

std::string Payload(const std::string& reply) {
  if (!ReplyOk(reply)) return "";
  std::string out;
  for (const char* key : {"algo", "completed", "cost", "opt", "subopt",
                          "execs", "contour", "retries"}) {
    if (!out.empty()) out += " ";
    out += std::string(key) + "=" + Field(reply, key);
  }
  return out;
}

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          std::string* err) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *err = "pipe2 failed";
    return false;
  }
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *err = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec. The server dies
    // with the benchmark, so an interrupted run leaves no process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  std::string buf, line;
  while (ReadLine(out_fd_, &buf, &line, 120000)) {
    const std::string prefix = "listening on port ";
    if (line.rfind(prefix, 0) == 0) {
      port_ = std::atoi(line.c_str() + prefix.size());
      return true;
    }
  }
  *err = "server " + binary + " did not report a listening port";
  Kill();
  return false;
}

bool ServerProcess::Stop() {
  if (pid_ < 0) return false;
  {
    Connection c;
    std::string bye;
    if (c.Connect(port_)) (void)c.Call("SHUTDOWN", &bye);
  }
  // Drain stdout until the server closes it by exiting.
  std::string buf, line;
  while (ReadLine(out_fd_, &buf, &line, 10000)) {
  }
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (Clock::now() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      ::close(out_fd_);
      out_fd_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return false;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A wedged server turns into socket failures instead of a hung run.
  timeval tv{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool Connection::Call(const std::string& line, std::string* reply) {
  if (fd_ < 0) return false;
  const std::string msg = line + "\n";
  size_t sent = 0;
  while (sent < msg.size()) {
    const ssize_t n =
        ::send(fd_, msg.data() + sent, msg.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void WarmUp(const Workload& w, const std::vector<Expected>& expected,
            std::vector<Connection>* conns, std::vector<std::string>* failures) {
  std::mutex mu;
  std::vector<std::thread> threads;
  const size_t n = conns->size();
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < w.warmup.size(); i += n) {
        const int line = w.warmup[i];
        std::string reply;
        std::string bad =
            (*conns)[c].Call(w.pool[static_cast<size_t>(line)].text, &reply)
                ? Check(w, expected, line, reply)
                : "socket failure during warm-up";
        if (!bad.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          failures->push_back(bad);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

LoadResult RunLoad(const Workload& w, uint64_t seed,
                   const std::vector<Expected>& expected,
                   std::vector<Connection>* conns, Connection* control,
                   pid_t server_pid, double warm_s, double measure_s) {
  LoadResult out;
  const auto epoch = Clock::now();
  std::atomic<bool> stop{false};
  std::mutex mu;  // guards out.failures
  const size_t n = conns->size();
  std::vector<std::vector<Sample>> per_client(n);

  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Stream stream(&w, seed, static_cast<int>(c));
      std::vector<Sample>& samples = per_client[c];
      samples.reserve(1 << 16);
      std::string reply;
      while (!stop.load(std::memory_order_relaxed)) {
        Sample s;
        s.line = stream.Next();
        s.sent_s = SecondsSince(epoch);
        const bool answered = (*conns)[c].Call(
            w.pool[static_cast<size_t>(s.line)].text, &reply);
        s.done_s = SecondsSince(epoch);
        s.latency_ms = (s.done_s - s.sent_s) * 1e3;
        std::string bad = answered ? Check(w, expected, s.line, reply)
                                   : "socket failure";
        if (answered && ReplyOk(reply)) {
          s.ok = true;
          s.queue_ms = std::atof(Field(reply, "queue_ms").c_str());
          s.run_ms = std::atof(Field(reply, "run_ms").c_str());
          s.retries = std::atoi(Field(reply, "retries").c_str());
          s.cache_hit = Field(reply, "cache_hit") == "1";
          s.fb_hit = Field(reply, "fb_hit") == "1";
          s.warm_done = Field(reply, "warm_done") == "1";
          s.drift = Field(reply, "drift") == "1";
        }
        samples.push_back(s);
        if (!bad.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          if (out.failures.size() < 20) out.failures.push_back(bad);
        }
        if (!answered) break;  // counted as a failed sample
      }
    });
  }

  auto snapshot = [&](std::map<std::string, int64_t>* stats, double* cpu) {
    std::string reply;
    if (control->Call("STATS", &reply)) *stats = ParseStats(reply);
    *cpu = ProcCpuSeconds(server_pid);
  };
  std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
  snapshot(&out.stats_start, &out.cpu_start_s);
  out.window_start = SecondsSince(epoch);
  std::this_thread::sleep_for(std::chrono::duration<double>(measure_s));
  out.window_end = SecondsSince(epoch);
  snapshot(&out.stats_end, &out.cpu_end_s);
  stop.store(true);
  for (std::thread& t : threads) t.join();

  for (auto& v : per_client) {
    out.samples.insert(out.samples.end(), v.begin(), v.end());
  }
  return out;
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const size_t rp = all.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream fields(all.substr(rp + 1));
  std::string tok;
  double ticks = 0.0;
  // Fields 3.. follow the command name; utime and stime are fields 14, 15.
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field >= 14) ticks += std::atof(tok.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ProcPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace e2e
