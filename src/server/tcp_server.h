// Thin line-protocol TCP front over QueryService, in the shape of
// RDF-TDAA's server: one text line per request, one text line per answer,
// so the bench driver (tools/service_smoke.py) and anything that can open
// a socket can talk to the service without linking it.
//
// Protocol (newline-terminated ASCII, one command per line):
//
//   SUBMIT query=2D_Q91 mode=sb qa=0.04,0.1 faults=exec.*:p=0.01 seed=7
//     -> OK id=3 algo=SpillBound completed=1 cost=412.1 opt=301.9
//        subopt=1.365 execs=6 contour=4 cache_hit=1 retries=0 fb_hit=0
//        warm=0 warm_done=0 drift=0 queue_ms=0.1 run_ms=3.2
//     -> ERR code=9 status=ResourceExhausted msg=admission queue full ...
//   PING      -> PONG
//   STATS     -> STATS hits=.. misses=.. evictions=.. cache_size=..
//                submitted=.. completed=.. rejected=.. queue_depth=..
//                shard_chunks_scanned=.. shard_chunks_pruned=..
//                shard_straggler_retries=.. shard_lost_chunks=..
//                invalidations=.. feedback_hits=.. feedback_misses=..
//                warm_starts=.. warm_completions=.. drift_events=..
//                feedback_degraded=..
//   QUIT      -> closes the connection
//   SHUTDOWN  -> stops the whole server
//
// SUBMIT keys mirror ServiceRequest / RequestOptions: query, mode
// (native|pb|sb|ab), qa (comma-separated finite selectivities), budget
// and deadline_ms (finite numbers; negative = none), use_engine (0|1),
// threads (a whole integer in [0, kMaxSubmitThreads]; 0 = all cores),
// shards (scatter-gather workers for full engine runs, a whole integer in
// [0, kMaxSubmitShards]; <= 1 is unsharded; results are bit-identical at
// any value), points (a whole integer in [0, kMaxEssLocations]; 0 = the
// per-D default; 1 or a points^D grid past kMaxEssLocations is refused
// with InvalidArgument when the ESS is built), ratio (a finite number;
// <= 1 is refused the same way), build (exhaustive|exact — both name the
// one exact sweep and select nothing; accepted for existing clients),
// compression
// (auto|raw|packed|vbyte|dict|on|off — the catalog's storage encoding;
// raw also disables fused execution), fused (0|1 — decode-then-filter
// override on encoded columns), storage (resident|mmap — catalog
// residence: in-memory or demand-paged column files; physical only,
// responses are bit-identical across backends),
// feedback (0|1 — closed-loop calibration,
// warm-started discovery, and drift detection against the serving
// instance's FeedbackStore), faults (spec string, no spaces), seed (an
// unsigned 64-bit decimal).
// Unknown keys are an error; values never contain spaces. A line longer
// than kMaxLineBytes gets ERR code=2 and the connection closes.
// Each SUBMIT is served synchronously on its connection (Submit + Wait) —
// concurrency comes from concurrent connections, which is exactly how the
// throughput bench drives it. ERR `code` is the stable ExitCodeFor()
// number of the status.

#ifndef ROBUSTQP_SERVER_TCP_SERVER_H_
#define ROBUSTQP_SERVER_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/query_service.h"

namespace robustqp {

/// Upper bounds of the SUBMIT `threads` and `shards` keys: `threads` caps
/// the fan-out blocks of a request's full executions (each with its own
/// scratch) and `shards` sizes per-shard vectors, so neither may take an
/// unbounded value from one line.
constexpr int kMaxSubmitThreads = 64;
constexpr int kMaxSubmitShards = 1024;

/// Longest accepted request line, in bytes without its LF or CRLF. A longer
/// line, or an unterminated one that grows past it, gets one ERR code=2
/// reply and the connection closes, so one client cannot grow the
/// server's buffer without bound.
constexpr size_t kMaxLineBytes = 64 * 1024;

/// Parses one SUBMIT line ("SUBMIT key=value ...") into a ServiceRequest.
/// Returns InvalidArgument on unknown keys, malformed values (numbers
/// must be whole and finite), out-of-range threads / shards / points, or
/// a faults= spec that FaultInjector::Configure would refuse.
Status ParseSubmitLine(const std::string& line, ServiceRequest* out);

/// Renders the one-line wire answer for a response: "OK ..." when the
/// terminal status is kOk, "ERR code=<n> status=<name> msg=<text>"
/// otherwise.
std::string FormatResponseLine(const ServiceResponse& resp);

/// A minimal thread-per-connection TCP front. Owns no QueryService — the
/// embedding binary wires one in.
class TcpServer {
 public:
  /// `port` 0 picks an ephemeral port; port() reports the bound one.
  TcpServer(QueryService* service, int port);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the accept loop. Fails with kUnavailable
  /// when the port cannot be bound.
  Status Start();

  /// Stops accepting, closes every connection, and joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Blocks until Stop() is called (by a SHUTDOWN command or another
  /// thread).
  void WaitForShutdown();

  int port() const { return port_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  QueryService* const service_;
  int port_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shut_down_ = false;
  /// Set by the SHUTDOWN command (Stop() must run off-connection-thread);
  /// joined by the destructor.
  std::thread shutdown_thread_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_SERVER_TCP_SERVER_H_
