// NDJSON wire protocol of the fbt_serve daemon.
//
// Framing: one JSON object per line in both directions. Requests carry a
// "type" ("experiment", "ping", "stats", "shutdown") and a caller-chosen
// "id" that every response line echoes, so a client multiplexing requests
// over one connection can pair them up. Responses:
//
//   {"type":"progress","id":...,"event":{...}}   journal events, streamed
//   {"type":"result","id":...,"cache":"hit"|"miss",...,"elapsed_ms":...}
//   {"type":"error","id":...,"message":"..."}
//   {"type":"pong","id":...}
//   {"type":"stats","id":...,"cache_hits":...,"latency":{...},
//    "scheduler":{...}}                          see ServiceStats
//   {"type":"bye","id":...}                      shutdown acknowledged
//
// A result answers its own request only: target, experiment key, counts,
// coverage, the identity fields and elapsed_ms. Its size does not depend on
// how long the daemon has run; the process-wide schema-v5 run report
// (obs/run_report.hpp) is written once, at shutdown (fbt_serve --report).
// Identity fields "detect_hash" and "first_detect_hash" fingerprint the
// per-fault detect counts and first-detect attribution so clients (and CI)
// can assert that a cache hit is bit-identical to a cold run without
// shipping the whole matrix.
//
// Parsing reuses the obs/json DOM reader; rendering is by hand like the
// rest of the repo's writers (fixed key order, deterministic).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bist/functional_bist.hpp"
#include "flow/bist_flow.hpp"
#include "obs/event_journal.hpp"

namespace fbt::serve {

enum class RequestType { kExperiment, kPing, kStats, kShutdown };

struct ExperimentRequest {
  /// Benchmark name of the target (circuits/registry), OR inline .bench
  /// text in `netlist_bench` (then `target` only names the circuit).
  std::string target;
  std::string netlist_bench;
  /// Driving block benchmark name; empty or "buffers" = unconstrained.
  std::string driver;
  BistExperimentConfig config;  ///< target_name/driver_name filled from above
  bool stream_progress = true;
};

struct Request {
  RequestType type = RequestType::kPing;
  std::string id;
  ExperimentRequest experiment;  ///< valid when type == kExperiment
};

/// Parses one request line. Returns false and fills `error` on malformed
/// input (unknown type, bad JSON, missing target) and on a config outside
/// the fixed work caps: an odd segment_length or one below 2, LFSR/MISR
/// stages outside the primitive-polynomial table, bias bits, cycle,
/// sequence, failure or thread counts above a constant cap, or a zero
/// detect_limit, scan_max_chains or scan_min_chain_length. Config fields
/// absent from the request keep BistExperimentConfig defaults; unknown ones
/// (such as the retired "speculation_lanes") are ignored.
bool parse_request(const std::string& line, Request& out, std::string& error);

/// The work-cap check parse_request applies: empty when `cfg` is within the
/// caps, else the error message.
std::string check_config(const BistExperimentConfig& cfg);

/// Hex fingerprint of the per-fault detect-count vector.
std::string hash_detect_counts(const std::vector<std::uint32_t>& counts);
/// Hex fingerprint of the first-detect attribution records.
std::string hash_first_detects(const std::vector<FaultFirstDetect>& fd);

/// Everything a result line carries; also the cache's experiment-entry
/// payload (a warm hit re-renders a stored summary).
struct ExperimentSummary {
  std::string target;
  double swa_func_percent = 0.0;
  std::size_t num_tests = 0;
  std::size_t num_seeds = 0;
  std::size_t detected = 0;
  std::size_t num_faults = 0;
  double fault_coverage_percent = 0.0;
  double overhead_percent = 0.0;
  std::vector<std::uint32_t> detect_count;
  std::vector<FaultFirstDetect> first_detect;

  std::uint64_t footprint_bytes() const {
    return sizeof(*this) + target.size() +
           detect_count.size() * sizeof(std::uint32_t) +
           first_detect.size() * sizeof(FaultFirstDetect);
  }
};

/// Summary of one latency histogram for the stats response, in ms.
/// p99_clamped mirrors obs::histogram_quantile's overflow flag: when true
/// the p99 is only a lower bound (the rank landed past the last bucket).
struct LatencyStats {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool p99_clamped = false;
};

/// Scheduler snapshot carried by the stats response (see
/// jobs::JobSystem::scheduler_snapshot).
struct SchedulerStats {
  std::uint64_t workers = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  double busy_ms = 0.0;
  double utilization = 0.0;
};

/// Everything a stats response carries: request/cache totals (the v1 flat
/// fields, kept byte-compatible), per-request latency decomposed into
/// queue / cache_lookup / compute / render segments plus cold/warm totals,
/// and the scheduler snapshot. Assembled by ExperimentService::
/// collect_stats(); frozen at shutdown so the drain cannot skew the final
/// response (see ExperimentService::freeze_stats).
struct ServiceStats {
  std::uint64_t requests_total = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  LatencyStats cold;          ///< serve.request_total_cold_ms
  LatencyStats warm;          ///< serve.request_total_warm_ms
  LatencyStats queue;         ///< serve.request_queue_ms
  LatencyStats cache_lookup;  ///< serve.request_cache_ms
  LatencyStats compute;       ///< serve.request_compute_ms
  LatencyStats render;        ///< serve.request_render_ms
  SchedulerStats scheduler;
};

std::string render_stats(const std::string& id, const ServiceStats& stats);

std::string render_progress(const std::string& id,
                            const obs::JournalEvent& event);
std::string render_result(const std::string& id, const ExperimentSummary& s,
                          bool cache_hit, const std::string& experiment_key,
                          double elapsed_ms);
std::string render_error(const std::string& id, const std::string& message);
std::string render_pong(const std::string& id);
std::string render_bye(const std::string& id);

}  // namespace fbt::serve
