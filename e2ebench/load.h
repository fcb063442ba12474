// The server child process and the closed-loop TCP load against it.

#ifndef E2EBENCH_LOAD_H_
#define E2EBENCH_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace e2e {

/// A robustqp_server child. The destructor kills and reaps a child that
/// Stop() did not end.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary args...` and waits for its "listening on port" line.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* err);
  /// Sends SHUTDOWN and reaps the child (SIGKILL after 10 s). True iff it
  /// exited with status 0.
  bool Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// One blocking line-protocol connection to 127.0.0.1.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(int port);
  /// Sends `line` and reads one reply line. False on any socket failure.
  bool Call(const std::string& line, std::string* reply);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The value of `key=` in a reply line ("" when absent).
std::string Field(const std::string& reply, const std::string& key);

/// The deterministic part of an OK reply, in the order the checks compare:
/// algo completed cost opt subopt execs contour retries.
std::string Payload(const std::string& reply);

/// What the benchmark expects of each pool line (see reference.h).
struct Expected {
  /// Payload every reply must carry; empty = unchecked (feedback lines).
  std::string payload;
  /// MSO guarantee the reply's subopt must not exceed; 0 = unchecked.
  double guarantee = 0.0;
};

/// One request sent by a client.
struct Sample {
  int line = -1;
  bool ok = false;
  double sent_s = 0.0;  // seconds since the load's epoch
  double done_s = 0.0;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  int retries = 0;
  bool cache_hit = false;
  bool fb_hit = false;
  bool warm_done = false;
  bool drift = false;
};

/// Warm-up: sends each warm-up line once, spread over `conns`; the
/// replies are checked like load replies.
void WarmUp(const Workload& w, const std::vector<Expected>& expected,
            std::vector<Connection>* conns, std::vector<std::string>* failures);

struct LoadResult {
  std::vector<Sample> samples;
  /// Measured window, seconds since the epoch of `samples`.
  double window_start = 0.0;
  double window_end = 0.0;
  /// Server STATS counters and CPU seconds at both window edges.
  std::map<std::string, int64_t> stats_start, stats_end;
  double cpu_start_s = 0.0;
  double cpu_end_s = 0.0;
  std::vector<std::string> failures;
};

/// Closed loop: one thread per connection sends its stream's next line as
/// soon as the previous reply arrives. `warm_s` of untimed load precede
/// the `measure_s` window. `control` carries only STATS.
LoadResult RunLoad(const Workload& w, uint64_t seed,
                   const std::vector<Expected>& expected,
                   std::vector<Connection>* conns, Connection* control,
                   pid_t server_pid, double warm_s, double measure_s);

/// utime + stime of `pid`, in seconds.
double ProcCpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of `pid`, in MB.
double ProcPeakRssMb(pid_t pid);

}  // namespace e2e

#endif  // E2EBENCH_LOAD_H_
