// serve_sweep: a closed loop of client threads sending NDJSON experiment
// lines through ExperimentService::handle_line, the way a daemon user sweeps
// seeds. Each client sends its next line only after the previous answer.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common.hpp"
#include "jobs/job_system.hpp"
#include "obs/event_journal.hpp"
#include "obs/phase.hpp"
#include "obs/resource.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/server.hpp"

namespace fbtbench {

namespace {

/// Operation ids of replayed misses: kReplayOp + the request's index.
constexpr std::int64_t kReplayOp = 1000000;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The service a daemon runs: pool, artifact cache and request handler.
struct Daemon {
  explicit Daemon(std::size_t workers)
      : pool(workers), service(pool, cache) {}
  fbt::jobs::JobSystem pool;
  fbt::serve::ArtifactCache cache;
  fbt::serve::ExperimentService service;
};

/// Reads the identity fields of a result line into `rec`. Only the head of
/// the line is parsed: the embedded run report is the last member and can
/// be hundreds of KB, so the full line is parsed once, after the loop.
void read_answer(const std::string& line, OpRecord& rec) {
  rec.result_bytes = static_cast<double>(line.size());
  const std::size_t cut = line.find(", \"report\": ");
  Json doc;
  std::string error;
  if (!fbt::obs::json_parse(
          cut == std::string::npos ? line : line.substr(0, cut) + "}", doc,
          error)) {
    rec.ok = false;
    rec.error = "unparsable response: " + error;
    return;
  }
  const Json* type = doc.find("type");
  if (type == nullptr || type->as_string("") != "result") {
    const Json* message = doc.find("message");
    rec.ok = false;
    rec.error = "not a result line: " +
                (message != nullptr ? message->as_string("") : line);
    return;
  }
  const Json* cache = doc.find("cache");
  const Json* detect = doc.find("detect_hash");
  const Json* first = doc.find("first_detect_hash");
  if (cache == nullptr || detect == nullptr || first == nullptr) {
    rec.ok = false;
    rec.error = "result line lacks cache/detect_hash/first_detect_hash";
    return;
  }
  rec.kind = cache->as_string("");
  rec.fingerprint =
      detect->as_string("") + "/" + first->as_string("");
  const Json* cov = doc.find("fault_coverage_percent");
  const Json* tests = doc.find("num_tests");
  const Json* seeds = doc.find("num_seeds");
  rec.coverage_pct = cov != nullptr ? cov->as_number() : 0.0;
  rec.tests = tests != nullptr ? tests->as_number() : 0.0;
  rec.seeds = seeds != nullptr ? seeds->as_number() : 0.0;
}

std::string last_line(fbt::serve::ExperimentService& service,
                      const std::string& request) {
  std::string last;
  service.handle_line(request, [&](const std::string& l) { last = l; });
  return last;
}

}  // namespace

void run_serve_sweep(const Json& spec, double deadline_s, Tracer& tracer,
                     RawResult& raw) {
  const Json& flow = at(spec, "flow");
  const std::vector<Json>& requests = at(spec, "requests").array;
  const std::vector<Json>& meta = at(spec, "meta").array;
  const std::size_t clients = u64(spec, "clients");

  // Set-up: a fresh daemon (empty journal, pool, cache, service) primed with
  // one request per circuit, so each circuit's netlist, CSR, fault list and
  // calibration are cached before timing -- the state a daemon reaches after
  // its first requests. Repeated; the last repetition's daemon is used.
  std::unique_ptr<Daemon> daemon;
  for (std::uint64_t rep = 0; rep < u64(spec, "setup_reps"); ++rep) {
    daemon.reset();
    fbt::obs::journal().clear();
    fbt::obs::PhaseTrace::instance().clear();
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(u64(spec, "workers"));
    for (const Json& line : at(spec, "prime").array) {
      OpRecord rec;
      read_answer(last_line(daemon->service, line.string), rec);
      if (!rec.ok) raw.check_failures.push_back("priming: " + rec.error);
    }
    raw.setup_s.push_back(seconds_since(t0));
  }
  fbt::serve::ExperimentService& service = daemon->service;

  const CounterDelta counters(
      {"bist.segments_built", "bist.segments_accepted",
       "bist.speculated_lanes", "bist.speculation_wasted",
       "fault.pack_groups_simulated", "fault.pack_lanes_wasted"});
  const fbt::serve::ArtifactCache::Stats cache0 = daemon->cache.stats();
  const fbt::jobs::SchedulerSnapshot sched0 =
      daemon->pool.scheduler_snapshot();
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<OpRecord>> per_client(clients);
  std::vector<std::string> longest(clients);
  const std::int64_t loop_t0 = now_ns();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (seconds_since(loop_t0) < deadline_s) {
          const std::size_t i = next.fetch_add(1);
          if (i >= requests.size()) break;
          OpRecord rec;
          rec.index = static_cast<std::int64_t>(i);
          std::string answer;
          const std::int64_t t0 = now_ns();
          try {
            Span s(tracer, "serve.handle_line", rec.index);
            answer = last_line(service, requests[i].string);
          } catch (const std::exception& ex) {
            rec.ok = false;
            rec.error = ex.what();
          }
          rec.latency_ms = static_cast<double>(now_ns() - t0) / 1e6;
          rec.end_s = seconds_since(loop_t0);
          if (rec.ok) read_answer(answer, rec);
          if (answer.size() > longest[c].size()) {
            longest[c] = std::move(answer);
          }
          per_client[c].push_back(std::move(rec));
        }
      });
    }
  }
  raw.loop_s = seconds_since(loop_t0);
  raw.peak_rss_mb =
      static_cast<double>(fbt::obs::peak_rss_bytes()) / 1048576.0;
  counters.store(raw);
  const fbt::serve::ArtifactCache::Stats cache1 = daemon->cache.stats();
  raw.values["serve.artifact_hits"] =
      static_cast<double>(cache1.hits - cache0.hits);
  raw.values["serve.artifact_misses"] =
      static_cast<double>(cache1.misses - cache0.misses);
  const fbt::jobs::SchedulerSnapshot sched1 =
      daemon->pool.scheduler_snapshot();
  raw.values["jobs.busy_ms"] = sched1.busy_ms - sched0.busy_ms;
  raw.values["jobs.elapsed_ms"] = sched1.elapsed_ms - sched0.elapsed_ms;
  raw.values["jobs.workers"] = static_cast<double>(sched1.workers);
  raw.values["jobs.steals"] =
      static_cast<double>(sched1.steals - sched0.steals);
  for (std::vector<OpRecord>& ops : per_client) {
    for (OpRecord& r : ops) raw.ops.push_back(std::move(r));
  }
  std::sort(raw.ops.begin(), raw.ops.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.index < b.index;
            });
  note_unserved(raw, requests.size(), deadline_s);

  // Output checks, outside the timed window.
  // 1. The longest answer of each client parses in full.
  for (const std::string& line : longest) {
    Json doc;
    std::string error;
    if (!line.empty() && !fbt::obs::json_parse(line, doc, error)) {
      raw.check_failures.push_back("result line is not valid JSON: " + error);
    }
  }
  // 2. A repeated request answers exactly as its first occurrence did.
  std::map<std::string, std::string> first_answer;
  for (OpRecord& r : raw.ops) {
    if (!r.ok) continue;
    const std::string& line =
        requests[static_cast<std::size_t>(r.index)].string;
    const auto [it, inserted] = first_answer.emplace(line, r.fingerprint);
    if (!inserted && it->second != r.fingerprint) {
      r.ok = false;
      r.error = "repeated request answered differently";
    }
  }
  // 3. A seed-chosen sample of misses, recomputed by the batch flow (or, in
  //    the traced run, replayed through the composed layer calls, which is
  //    also the traced-mode self-check).
  std::size_t sampled = 0;
  std::vector<double> overhead_ms;
  std::vector<double> overhead_ratios;
  CounterDelta replay_counters({"bist.segments_built"});
  FlowStats totals;
  for (const Json& pick : at(spec, "sample").array) {
    // raw.ops holds every index below its size, sorted: ops[i].index == i.
    const auto idx = static_cast<std::size_t>(pick.number);
    if (idx >= raw.ops.size()) continue;
    OpRecord& r = raw.ops[idx];
    if (!r.ok || r.kind != "miss") continue;
    if (sampled == u64(spec, "sample_size")) break;
    const fbt::BistExperimentConfig cfg =
        flow_config(flow, str(meta[idx], "target"), "buffers",
                    u64(meta[idx], "rng_seed"));
    std::string fp;
    if (tracer.enabled()) {
      FlowStats stats;
      const std::int64_t t0 = now_ns();
      const fbt::BistExperimentResult res =
          composed_flow(cfg, tracer, kReplayOp + r.index, &stats);
      const double traced_ms = static_cast<double>(now_ns() - t0) / 1e6;
      fp = fingerprint(res.detect_count, res.run.first_detect);
      overhead_ms.push_back(r.latency_ms - stats.warm_flow_ms);
      totals.calibrate_gate_cycles += stats.calibrate_gate_cycles;
      totals.reduce_test_faults += stats.reduce_test_faults;
      totals.reduce_groups += stats.reduce_groups;
      totals.reduce_kept += stats.reduce_kept;
      // Tracing overhead: the same flow at once, untraced, through the
      // batch entry point (whose task-graph path differs from the serial
      // composed flow, so the figure includes that difference too).
      replay_counters.exclude([&] {
        const std::int64_t u0 = now_ns();
        (void)fbt::run_bist_experiment(cfg);
        overhead_ratios.push_back(
            traced_ms / (static_cast<double>(now_ns() - u0) / 1e6));
      });
    } else {
      const fbt::BistExperimentResult res = fbt::run_bist_experiment(cfg);
      fp = fingerprint(res.detect_count, res.run.first_detect);
    }
    if (fp != r.fingerprint) {
      const std::string what = tracer.enabled()
                                   ? "traced self-check: composed flow"
                                   : "batch run_bist_experiment";
      r.ok = false;
      r.error = what + " disagrees with the served answer";
    }
    ++sampled;
  }
  raw.values["serve.sampled_misses"] = static_cast<double>(sampled);
  replay_counters.store(raw, "replay_counter");
  if (!overhead_ratios.empty()) {
    raw.values["trace.overhead_ratio"] = median(overhead_ratios);
  }
  if (tracer.enabled()) {
    raw.values["trace.selfcheck_ops"] = static_cast<double>(sampled);
    if (!overhead_ms.empty()) {
      raw.values["serve.overhead_ms"] = median(overhead_ms);
    }
    raw.values["flow.calibrate_gate_cycles"] = totals.calibrate_gate_cycles;
    raw.values["flow.reduce_test_faults"] = totals.reduce_test_faults;
    raw.values["flow.reduce_groups"] = totals.reduce_groups;
    raw.values["flow.reduce_kept"] = totals.reduce_kept;
  }
}

}  // namespace fbtbench
