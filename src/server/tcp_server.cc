#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "common/fault.h"

namespace robustqp {

namespace {

/// Most input a connection refused for an overlong line still reads (and
/// discards) before it closes.
constexpr size_t kMaxDrainBytes = 256 * kMaxLineBytes;

/// Length of the line that ends at `end` (its newline, or the end of an
/// unterminated buffer) without a '\r' before it, the unit kMaxLineBytes
/// counts in.
size_t LineBytes(const std::string& buffer, size_t end) {
  return end > 0 && buffer[end - 1] == '\r' ? end - 1 : end;
}

/// Parses `value` as one whole, finite decimal number.
bool ParseFiniteDouble(const std::string& value, double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Splits "a,b,c" into doubles; returns false on any token that is not a
/// whole, finite number.
bool ParseDoubles(const std::string& csv, std::vector<double>* out) {
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    double v = 0.0;
    if (!ParseFiniteDouble(tok, &v)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

/// Parses `value` as a whole decimal integer in [lo, hi].
bool ParseBoundedInt(const std::string& value, int64_t lo, int64_t hi,
                     int* out) {
  char* end = nullptr;
  errno = 0;
  const int64_t v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Parses `value` as a whole unsigned decimal that fits in uint64_t: no
/// sign, no whitespace, no exponent.
bool ParseUint64(const std::string& value, uint64_t* out) {
  const char* end = value.data() + value.size();
  uint64_t v = 0;
  const std::from_chars_result r = std::from_chars(value.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace

Status ParseSubmitLine(const std::string& line, ServiceRequest* out) {
  std::stringstream ss(line);
  std::string verb;
  ss >> verb;
  if (verb != "SUBMIT") {
    return Status::InvalidArgument("expected SUBMIT, got \"" + verb + "\"");
  }
  ServiceRequest req;
  std::string token;
  while (ss >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("malformed key=value token: " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty()) {
      return Status::InvalidArgument("empty value for key " + key);
    }
    if (key == "query") {
      req.query_id = value;
    } else if (key == "mode") {
      if (!ParseRobustnessMode(value, &req.mode)) {
        return Status::InvalidArgument(
            "unknown mode " + value + " (want native|pb|sb|ab)");
      }
    } else if (key == "qa") {
      req.qa.clear();
      if (!ParseDoubles(value, &req.qa)) {
        return Status::InvalidArgument("malformed qa list: " + value);
      }
    } else if (key == "budget") {
      if (!ParseFiniteDouble(value, &req.budget)) {
        return Status::InvalidArgument("malformed budget: " + value);
      }
    } else if (key == "deadline_ms") {
      if (!ParseFiniteDouble(value, &req.deadline_ms)) {
        return Status::InvalidArgument("malformed deadline_ms: " + value);
      }
    } else if (key == "use_engine") {
      req.use_engine = value != "0";
    } else if (key == "threads") {
      if (!ParseBoundedInt(value, 0, kMaxSubmitThreads,
                           &req.options.num_threads)) {
        return Status::InvalidArgument(
            "threads must be an integer in [0, " +
            std::to_string(kMaxSubmitThreads) + "]: " + value);
      }
    } else if (key == "shards") {
      // Scatter-gather workers for full engine executions; results are
      // bit-identical at any value, so this is a pure performance knob.
      if (!ParseBoundedInt(value, 0, kMaxSubmitShards,
                           &req.options.num_shards)) {
        return Status::InvalidArgument(
            "shards must be an integer in [0, " +
            std::to_string(kMaxSubmitShards) + "]: " + value);
      }
    } else if (key == "points") {
      // 0 = DefaultPointsPerDim; Ess::TryBuild rejects 1 and grids past
      // kMaxEssLocations.
      if (!ParseBoundedInt(value, 0, kMaxEssLocations,
                           &req.options.points_per_dim)) {
        return Status::InvalidArgument(
            "points must be an integer in [0, " +
            std::to_string(kMaxEssLocations) + "]: " + value);
      }
    } else if (key == "ratio") {
      // Ess::TryBuild rejects ratios <= 1.
      if (!ParseFiniteDouble(value, &req.options.contour_cost_ratio)) {
        return Status::InvalidArgument("malformed ratio: " + value);
      }
    } else if (key == "build") {
      // Every ESS is the exact sweep; both names are accepted for the
      // clients that send them, and select nothing.
      if (value != "exhaustive" && value != "exact") {
        return Status::InvalidArgument("unknown build mode " + value +
                                       " (want exhaustive|exact)");
      }
    } else if (key == "compression") {
      // One knob for the storage layout: auto|on, raw|off, packed, vbyte,
      // dict. Raw storage has nothing to fuse, so it also clears the
      // fused-execution toggle (override with fused=).
      if (!ParseEncoding(value, &req.options.encoding)) {
        return Status::InvalidArgument(
            "unknown compression " + value +
            " (want auto|raw|packed|vbyte|dict|on|off)");
      }
      req.options.use_compression = req.options.encoding != Encoding::kRaw;
    } else if (key == "fused") {
      // Differential knob: decode-then-filter (fused=0) on encoded
      // columns; results and cost accounting are identical either way.
      req.options.use_compression = value != "0";
    } else if (key == "storage") {
      // Catalog residence: resident memory or demand-paged column files.
      // Physical only — responses are bit-identical across backends.
      if (!ParseStorageBackend(value, &req.options.storage)) {
        return Status::InvalidArgument("unknown storage " + value +
                                       " (want resident|mmap)");
      }
    } else if (key == "feedback") {
      // Closed-loop knob: consult/update the serving instance's
      // FeedbackStore (calibrated native seeds, warm-started discovery,
      // drift-driven cache invalidation). With an empty store the
      // response payload is bit-identical to feedback=0.
      req.options.use_feedback = value != "0";
    } else if (key == "faults") {
      // Checked here, with the parser the run will arm it with, so a bad
      // spec is refused before the request builds or caches a context.
      RQP_RETURN_NOT_OK(FaultInjector::ValidateSpec(value));
      req.options.fault_spec = value;
    } else if (key == "seed") {
      if (!ParseUint64(value, &req.options.fault_seed)) {
        return Status::InvalidArgument(
            "seed must be an unsigned 64-bit decimal integer: " + value);
      }
    } else {
      return Status::InvalidArgument("unknown SUBMIT key: " + key);
    }
  }
  *out = std::move(req);
  return Status::OK();
}

std::string FormatResponseLine(const ServiceResponse& resp) {
  std::ostringstream os;
  if (!resp.status.ok()) {
    os << "ERR code=" << ExitCodeFor(resp.status.code())
       << " status=" << StatusCodeToString(resp.status.code())
       << " msg=" << resp.status.message();
    return os.str();
  }
  os << "OK id=" << resp.request_id << " algo=" << resp.algorithm
     << " completed=" << (resp.completed ? 1 : 0)
     << " cost=" << resp.cost_used << " opt=" << resp.opt_cost
     << " subopt=" << resp.suboptimality
     << " execs=" << resp.discovery.num_executions()
     << " contour=" << resp.discovery.final_contour
     << " cache_hit=" << (resp.cache_hit ? 1 : 0)
     << " retries=" << resp.robustness.transient_retries
     << " fb_hit=" << (resp.feedback_hit ? 1 : 0)
     << " warm=" << (resp.warm_started ? 1 : 0)
     << " warm_done=" << (resp.warm_completed ? 1 : 0)
     << " drift=" << (resp.feedback_drift ? 1 : 0)
     << " queue_ms=" << resp.queue_ms << " run_ms=" << resp.run_ms;
  return os.str();
}

TcpServer::TcpServer(QueryService* service, int port)
    : service_(service), port_(port) {}

TcpServer::~TcpServer() {
  Stop();
  std::thread helper;
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    helper = std::move(shutdown_thread_);
  }
  if (helper.joinable()) helper.join();
}

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("bind() failed for port " +
                               std::to_string(port_));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;
    }
    std::vector<std::thread> reap;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load()) {
        ::close(fd);
        break;
      }
      reap.swap(finished_);
      // Registered under the lock: the thread's exit path needs its entry.
      const size_t id = next_conn_id_++;
      std::thread t([this, id, fd] { ServeConnection(id, fd); });
      conns_.emplace(id, Connection{fd, std::move(t)});
    }
    for (std::thread& t : reap) t.join();
  }
}

void TcpServer::ServeConnection(size_t id, int fd) {
  Result<int64_t> session = service_->OpenSession();
  std::string buffer;
  char chunk[4096];
  bool open = session.ok();
  while (open && !stopping_.load()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while (open && (nl = buffer.find('\n')) != std::string::npos) {
      if (LineBytes(buffer, nl) > kMaxLineBytes) break;
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      std::string reply;
      if (line == "PING") {
        reply = "PONG";
      } else if (line == "QUIT") {
        open = false;
        break;
      } else if (line == "SHUTDOWN") {
        const std::string bye = "BYE\n";
        (void)!::send(fd, bye.data(), bye.size(), MSG_NOSIGNAL);
        open = false;
        // Stop() joins this thread; hand the work to a helper thread the
        // destructor joins (never detached — it must not outlive *this).
        {
          std::lock_guard<std::mutex> lock(shutdown_mu_);
          if (!shutdown_thread_.joinable()) {
            shutdown_thread_ = std::thread([this] { Stop(); });
          }
        }
        break;
      } else if (line == "STATS") {
        const ContextCache::Stats cs = service_->cache_stats();
        const QueryService::ServiceStats ss = service_->stats();
        std::ostringstream os;
        os << "STATS hits=" << cs.hits << " misses=" << cs.misses
           << " evictions=" << cs.evictions << " cache_size=" << cs.size
           << " submitted=" << ss.submitted << " completed=" << ss.completed
           << " rejected=" << ss.rejected << " queue_depth=" << ss.queue_depth
           << " shard_chunks_scanned=" << ss.shard_chunks_scanned
           << " shard_chunks_pruned=" << ss.shard_chunks_pruned
           << " shard_straggler_retries=" << ss.shard_straggler_retries
           << " shard_lost_chunks=" << ss.shard_lost_chunks
           << " invalidations=" << cs.invalidations
           << " feedback_hits=" << ss.feedback_hits
           << " feedback_misses=" << ss.feedback_misses
           << " warm_starts=" << ss.warm_starts
           << " warm_completions=" << ss.warm_completions
           << " drift_events=" << ss.drift_events
           << " feedback_degraded=" << ss.feedback_degraded;
        reply = os.str();
      } else {
        ServiceRequest req;
        const Status parse = ParseSubmitLine(line, &req);
        ServiceResponse resp;
        if (!parse.ok()) {
          resp.status = parse;
        } else {
          Result<int64_t> id = service_->Submit(*session, std::move(req));
          if (!id.ok()) {
            resp.status = id.status();
          } else {
            Result<ServiceResponse> done = service_->Wait(*session, *id);
            resp = done.ok() ? done.MoveValue() : ServiceResponse{};
            if (!done.ok()) resp.status = done.status();
          }
        }
        reply = FormatResponseLine(resp);
      }
      reply.push_back('\n');
      if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) < 0) {
        open = false;
      }
    }
    // A line longer than the cap, or an unterminated buffer that already
    // is, gets one ERR and the connection closes; nothing of it is parsed.
    const size_t pending = std::min(buffer.find('\n'), buffer.size());
    if (open && LineBytes(buffer, pending) > kMaxLineBytes) {
      ServiceResponse resp;
      resp.status = Status::InvalidArgument(
          "line longer than " + std::to_string(kMaxLineBytes) + " bytes");
      const std::string reply = FormatResponseLine(resp) + "\n";
      (void)!::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      open = false;
      // Lingering close: closing with unread input resets the connection,
      // which can destroy the ERR before the client reads it. Half-close
      // so a FIN follows the ERR, then discard what the client still
      // sends, up to a bound, without buffering it.
      ::shutdown(fd, SHUT_WR);
      for (size_t drained = 0; drained < kMaxDrainBytes;) {
        const ssize_t d = ::recv(fd, chunk, sizeof(chunk), 0);
        if (d <= 0) break;
        drained += static_cast<size_t>(d);
      }
    }
  }
  if (session.ok()) (void)service_->CloseSession(*session);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto it = conns_.find(id);
    finished_.push_back(std::move(it->second.thread));
    conns_.erase(it);
    ::close(fd);
  }
  conn_cv_.notify_all();
}

void TcpServer::Stop() {
  if (stopping_.exchange(true)) {
    // Already stopping/stopped; still wait for completion so callers can
    // rely on Stop() being a barrier.
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [&] { return shut_down_; });
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> reap;
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : conns_) ::shutdown(conn.fd, SHUT_RDWR);
    conn_cv_.wait(lock, [&] { return conns_.empty(); });
    reap.swap(finished_);
  }
  for (std::thread& t : reap) t.join();
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shut_down_ = true;
  }
  shutdown_cv_.notify_all();
}

void TcpServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [&] { return shut_down_; });
}

}  // namespace robustqp
