// The serving core: ExperimentService executes protocol requests against a
// shared JobSystem + ArtifactCache, and SocketServer exposes it on a local
// AF_UNIX socket with NDJSON framing.
//
// Request lifecycle (experiment), all on the thread that read the request:
//   1. resolve target/driver netlists through the cache (content keys; the
//      name -> key memo makes repeat requests for named benchmarks O(1));
//   2. look up the experiment key -- a hit renders the stored summary
//      without touching the flow (the >= 10x warm path);
//   3. on a miss, fetch the derived artifacts (collapsed fault list,
//      SWA_func calibration) through the cache, wait for one of the
//      jobs.size() compute slots, and run the flow; its fault grading fans
//      out over the shared pool with parallel_for. A streaming request
//      taps the journal on this thread, so its progress lines are its own
//      events, sent as they happen;
//   4. store the summary under the experiment key and render it. A result
//      line carries only the request's own fields; the process-wide run
//      report is written once, at shutdown.
//
// Determinism note: cached experiment keys EXCLUDE num_threads and
// fault_pack_width (results are bit-identical across them), so a request
// repeated at a different parallelism setting is a legitimate warm hit; the
// detect_hash / first_detect_hash fields prove it bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "jobs/job_system.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"

namespace fbt::serve {

class ExperimentService {
 public:
  ExperimentService(jobs::JobSystem& jobs, ArtifactCache& cache);

  /// Handles one NDJSON request line, passing each response line (without
  /// trailing newline) to `emit`. Returns false when the request asked the
  /// server to shut down.
  bool handle_line(const std::string& line,
                   const std::function<void(const std::string&)>& emit);

  /// Direct (in-process) experiment execution on the calling thread; the
  /// socket path and the bench harness share it. `emit`, when set, receives
  /// the progress lines of this run's own journal events as they happen.
  /// Sets `*cache_hit` to whether the experiment key was already cached.
  ExperimentSummary run_experiment(
      const ExperimentRequest& request, bool* cache_hit,
      const std::function<void(const std::string&)>& emit = {},
      const std::string& id = {}, std::string* experiment_key_hex = nullptr);

  ArtifactCache& cache() { return cache_; }
  std::uint64_t requests_total() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Assembles a live ServiceStats from the cache, the request counter, the
  /// serve.request_* latency histograms, and the scheduler snapshot.
  ServiceStats collect_stats() const;

  /// Freezes the stats at their current values: every later stats_snapshot()
  /// returns this copy. Called by the shutdown path BEFORE the graceful
  /// drain starts, so the final `stats` response and the partial run report
  /// agree instead of racing the journal/metrics flush. First freeze wins;
  /// later calls are no-ops.
  void freeze_stats();

  /// The frozen stats when freeze_stats() ran, else collect_stats().
  ServiceStats stats_snapshot() const;

 private:
  struct ResolvedNetlist {
    CacheKey key;
    std::shared_ptr<const Netlist> netlist;  ///< may be null on alias hit
  };
  /// Registry benchmark by name, through the "bench:<name>" alias memo: a
  /// remembered alias skips the load unless the netlist itself is needed.
  ResolvedNetlist resolve_named(const std::string& name, bool need_netlist);
  /// Target by inline text (canonicalized via parse) or registry name.
  ResolvedNetlist resolve_target(const ExperimentRequest& request,
                                 bool need_netlist);
  /// Driver by name, or the buffers block sized to the target.
  ResolvedNetlist resolve_driver(const ExperimentRequest& request,
                                 const ResolvedNetlist& target,
                                 bool need_netlist);
  std::shared_ptr<const Netlist> fetch_netlist(
      const CacheKey& key, const std::function<Netlist()>& load);

  jobs::JobSystem& jobs_;
  ArtifactCache& cache_;
  /// At most jobs_.size() flows compute at once; the wait for a slot is the
  /// serve.request_queue_ms segment.
  std::counting_semaphore<> compute_slots_;
  std::atomic<std::uint64_t> requests_{0};
  mutable std::mutex stats_mutex_;  ///< guards frozen_stats_
  std::optional<ServiceStats> frozen_stats_;
};

/// Blocking AF_UNIX NDJSON server: accept loop + one thread per connection.
class SocketServer {
 public:
  /// Longest request line a connection may send (inline netlists included).
  /// A longer one is answered with an error line and the connection closed.
  static constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

  SocketServer(ExperimentService& service, std::string socket_path);
  ~SocketServer();

  /// Binds and listens (unlinking a stale socket file). False + `error` on
  /// failure.
  bool start(std::string& error);

  /// Runs the accept loop until request_stop(); joins connection threads
  /// before returning.
  void serve_forever();

  /// Stops the accept loop and wakes blocked connection reads. Safe from
  /// any thread (the signal watcher calls it).
  void request_stop();

  bool stopping() const { return stop_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return path_; }

 private:
  void handle_connection(int fd);

  ExperimentService& service_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;                 ///< guards conn_fds_ and threads_
  std::vector<int> conn_fds_;
  std::vector<std::thread> threads_;
};

}  // namespace fbt::serve
