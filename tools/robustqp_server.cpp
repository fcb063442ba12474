// robustqp_server — robust query processing as a service: a long-lived
// QueryService behind the line-protocol TCP front (see
// src/server/tcp_server.h for the protocol).
//
//   robustqp_server                      # ephemeral port, printed on stdout
//   robustqp_server --port 7432
//   robustqp_server --threads 8 --queue-limit 128 --cache-capacity 8
//
// Prints "listening on port <n>" once ready (drivers parse this line),
// serves until a client sends SHUTDOWN, and exits 0 on a clean stop. Start
// failures exit with the stable ExitCodeFor() number of their status.
// Apart from one thread per open connection, every thread the server runs
// on exists by the time it prints the banner: the request pool, the TCP
// front's accept thread and the process-wide fan-out pool, which it starts
// first.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/thread_pool.h"
#include "server/context_cache.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "storage/column_file.h"
#include "workloads/tpcds_scale.h"

namespace robustqp {
namespace {

int RunServer(int argc, char** argv) {
  int port = 0;
  std::string scale_dir;
  QueryService::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return ExitCodeFor(StatusCode::kInvalidArgument);
      port = std::atoi(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return ExitCodeFor(StatusCode::kInvalidArgument);
      options.num_threads = std::atoi(v);
    } else if (arg == "--queue-limit") {
      const char* v = next();
      if (v == nullptr) return ExitCodeFor(StatusCode::kInvalidArgument);
      options.queue_limit = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--cache-capacity") {
      const char* v = next();
      if (v == nullptr) return ExitCodeFor(StatusCode::kInvalidArgument);
      options.cache_capacity = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--scale-dir") {
      const char* v = next();
      if (v == nullptr) return ExitCodeFor(StatusCode::kInvalidArgument);
      scale_dir = v;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: robustqp_server [--port n] [--threads n] "
                   "[--queue-limit n] [--cache-capacity n] [--scale-dir d]\n"
                   "  --scale-dir <d>  serve storage=mmap requests from the\n"
                   "                   column files in <d> (robustqp_scale_\n"
                   "                   build output) instead of the synthetic\n"
                   "                   in-memory TPC-DS catalog\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return ExitCodeFor(StatusCode::kInvalidArgument);
    }
  }

  if (!scale_dir.empty()) {
    // Out-of-core serving: map the prebuilt column files once and answer
    // every storage=mmap request from them. Open touches only footers, so
    // this is cheap even for a 1e8-row store.
    Result<std::shared_ptr<Catalog>> scale = OpenTpcdsScaleCatalog(scale_dir);
    if (!scale.ok()) {
      std::cerr << "scale-dir open failed: " << scale.status().ToString()
                << "\n";
      return ExitCodeFor(scale.status().code());
    }
    ContextCache::RegisterExternalTpcds(*scale, StorageBackend::kMmap);
    std::cout << "scale catalog: " << (*scale)->TableNames().size()
              << " mapped tables from " << scale_dir << std::endl;
  }

  ThreadPool::Shared();
  QueryService service(options);
  TcpServer server(&service, port);
  const Status st = server.Start();
  if (!st.ok()) {
    std::cerr << "start failed: " << st.ToString() << "\n";
    return ExitCodeFor(st.code());
  }
  std::cout << "listening on port " << server.port() << std::endl;
  server.WaitForShutdown();
  const QueryService::ServiceStats stats = service.stats();
  std::cout << "served " << stats.completed << " requests ("
            << stats.rejected << " rejected, " << stats.deadline_expired
            << " deadline-expired); shutting down" << std::endl;
  return 0;
}

}  // namespace
}  // namespace robustqp

int main(int argc, char** argv) { return robustqp::RunServer(argc, argv); }
