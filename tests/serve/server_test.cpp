#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flow/bist_flow.hpp"
#include "jobs/job_system.hpp"
#include "obs/phase.hpp"
#include "serve/cache_key.hpp"
#include "serve/protocol.hpp"

namespace fbt::serve {
namespace {

// The CI container may report one core; size the shared pool explicitly so
// requests genuinely multiplex (the >= 4 concurrent-request acceptance runs
// under TSan in CI).
constexpr std::size_t kPool = 4;

ExperimentRequest small_request() {
  ExperimentRequest request;
  request.target = "s298";
  request.driver = "buffers";
  request.config.target_name = "s298";
  request.config.driver_name = "buffers";
  request.config.calibration.num_sequences = 4;
  request.config.calibration.sequence_length = 400;
  request.config.generation.segment_length = 200;
  request.config.generation.max_segment_failures = 2;
  request.config.generation.max_sequence_failures = 2;
  request.config.generation.rng_seed = 19;
  return request;
}

struct Fixture {
  jobs::JobSystem jobs{kPool};
  ArtifactCache cache;
  ExperimentService service{jobs, cache};
};

TEST(ExperimentService, PingPongAndStats) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };

  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"ping\", \"id\": \"p1\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"pong\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\": \"p1\""), std::string::npos);

  lines.clear();
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"stats\", \"id\": \"s1\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"stats\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cache_hits\": 0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cache_misses\": 0"), std::string::npos);
  // The enriched stats response: per-segment latency summaries (cold/warm
  // keyed separately) and the scheduler snapshot of the shared pool.
  EXPECT_NE(lines[0].find("\"latency\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cold\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"warm\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"queue\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"compute\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"render\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"p99_clamped\": "), std::string::npos);
  EXPECT_NE(lines[0].find("\"scheduler\": {\"workers\": 4"),
            std::string::npos);
}

TEST(ExperimentService, FreezeStatsPinsThePublishedSnapshot) {
  // The SIGTERM drain fix: the shutdown path freezes the stats BEFORE the
  // graceful drain, so requests completing during the drain cannot make the
  // final stats responses disagree with the run report. First freeze wins.
  Fixture fx;
  const ExperimentRequest request = small_request();
  bool hit = false;
  fx.service.run_experiment(request, &hit);
  fx.service.freeze_stats();
  const ServiceStats frozen = fx.service.stats_snapshot();
  EXPECT_EQ(frozen.requests_total, 1u);

  // A request that completes after the freeze (the in-flight drain): the
  // live counter moves, the published snapshot does not.
  fx.service.run_experiment(request, &hit);
  EXPECT_EQ(fx.service.requests_total(), 2u);
  EXPECT_EQ(fx.service.collect_stats().requests_total, 2u);
  EXPECT_EQ(fx.service.stats_snapshot().requests_total, 1u);

  // Later freezes are no-ops.
  fx.service.freeze_stats();
  EXPECT_EQ(fx.service.stats_snapshot().requests_total, 1u);

  // The protocol line rendered from the frozen snapshot agrees.
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"stats\", \"id\": \"s2\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"requests_total\": 1"), std::string::npos);
}

TEST(ExperimentService, MalformedRequestEmitsError) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };

  EXPECT_TRUE(fx.service.handle_line("this is not json", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos);

  lines.clear();
  // Valid JSON, unknown type: still an error, still keeps serving.
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"frobnicate\", \"id\": \"x\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos);

  lines.clear();
  // Experiment with no target and no inline netlist.
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"experiment\", \"id\": \"x\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos);
}

TEST(ExperimentService, ShutdownRequestStopsServing) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  EXPECT_FALSE(fx.service.handle_line(
      "{\"type\": \"shutdown\", \"id\": \"bye\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"bye\""), std::string::npos);
}

TEST(ExperimentService, ColdRunMatchesBatchFlow) {
  Fixture fx;
  const ExperimentRequest request = small_request();
  bool hit = true;
  const ExperimentSummary served = fx.service.run_experiment(request, &hit);
  EXPECT_FALSE(hit);

  const BistExperimentResult batch = run_bist_experiment(request.config);
  EXPECT_EQ(served.num_tests, batch.run.num_tests);
  EXPECT_EQ(served.num_seeds, batch.run.num_seeds);
  EXPECT_EQ(served.detected, batch.detected);
  EXPECT_EQ(served.num_faults, batch.faults.size());
  EXPECT_DOUBLE_EQ(served.fault_coverage_percent,
                   batch.fault_coverage_percent);
  EXPECT_DOUBLE_EQ(served.swa_func_percent, batch.swa_func);
  // Bit-identity down to the per-fault detect matrix and attribution.
  EXPECT_EQ(hash_detect_counts(served.detect_count),
            hash_detect_counts(batch.detect_count));
  EXPECT_EQ(hash_first_detects(served.first_detect),
            hash_first_detects(batch.run.first_detect));
}

TEST(ExperimentService, WarmHitIsBitIdenticalToColdMiss) {
  Fixture fx;
  const ExperimentRequest request = small_request();
  bool hit = true;
  const ExperimentSummary cold = fx.service.run_experiment(request, &hit);
  ASSERT_FALSE(hit);
  const ExperimentSummary warm = fx.service.run_experiment(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(hash_detect_counts(cold.detect_count),
            hash_detect_counts(warm.detect_count));
  EXPECT_EQ(hash_first_detects(cold.first_detect),
            hash_first_detects(warm.first_detect));
  EXPECT_EQ(cold.num_tests, warm.num_tests);
  EXPECT_DOUBLE_EQ(cold.fault_coverage_percent, warm.fault_coverage_percent);
  EXPECT_GE(fx.cache.stats().hits, 1u);
}

TEST(ExperimentService, WarmHitAcrossParallelismKnobs) {
  // num_threads and fault_pack_width are excluded from experiment keys
  // (results are bit-identical across them), so the repeat at a different
  // parallelism setting is a legitimate warm hit.
  Fixture fx;
  ExperimentRequest request = small_request();
  bool hit = true;
  const ExperimentSummary cold = fx.service.run_experiment(request, &hit);
  ASSERT_FALSE(hit);
  request.config.num_threads = 3;
  const ExperimentSummary warm = fx.service.run_experiment(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(hash_detect_counts(cold.detect_count),
            hash_detect_counts(warm.detect_count));
  EXPECT_EQ(hash_first_detects(cold.first_detect),
            hash_first_detects(warm.first_detect));

  // fault_pack_width only changes how faults are packed into lane words
  // (PPSFP vs the serial reference engine), never the results -- a repeat at
  // a different width is the same experiment.
  request.config.fault_pack_width = 1;
  request.config.generation.fault_pack_width = 1;
  const ExperimentSummary repacked = fx.service.run_experiment(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(hash_detect_counts(cold.detect_count),
            hash_detect_counts(repacked.detect_count));
  EXPECT_EQ(hash_first_detects(cold.first_detect),
            hash_first_detects(repacked.first_detect));
}

TEST(ExperimentService, ConfigChangeIsAFreshMiss) {
  Fixture fx;
  ExperimentRequest request = small_request();
  bool hit = true;
  const ExperimentSummary first = fx.service.run_experiment(request, &hit);
  ASSERT_FALSE(hit);
  request.config.generation.rng_seed += 1;
  const ExperimentSummary second = fx.service.run_experiment(request, &hit);
  EXPECT_FALSE(hit);
  // Different seed, different run (detect attribution differs with
  // overwhelming probability on this circuit).
  EXPECT_NE(hash_first_detects(first.first_detect),
            hash_first_detects(second.first_detect));
}

TEST(ExperimentService, ConcurrentRequestsMultiplexOnePool) {
  // The TSan acceptance: >= 4 concurrent experiment requests share one
  // JobSystem without deadlock, and every result is bit-identical.
  Fixture fx;
  const ExperimentRequest request = small_request();
  constexpr std::size_t kClients = 4;
  std::vector<ExperimentSummary> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&fx, &request, &results, c] {
      bool h = false;
      results[c] = fx.service.run_experiment(request, &h);
    });
  }
  for (std::thread& t : clients) t.join();

  const std::string detect = hash_detect_counts(results[0].detect_count);
  const std::string first = hash_first_detects(results[0].first_detect);
  for (std::size_t c = 1; c < kClients; ++c) {
    EXPECT_EQ(hash_detect_counts(results[c].detect_count), detect) << c;
    EXPECT_EQ(hash_first_detects(results[c].first_detect), first) << c;
  }
  EXPECT_EQ(fx.service.requests_total(), kClients);
}

TEST(ExperimentService, HandleLineExperimentEmitsResultWithoutReport) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  const std::string line =
      "{\"type\": \"experiment\", \"id\": \"e1\", \"target\": \"s298\", "
      "\"driver\": \"buffers\", \"stream_progress\": false, \"config\": "
      "{\"cal_sequences\": 4, \"cal_length\": 400, \"segment_length\": 200, "
      "\"max_segment_failures\": 2, \"max_sequence_failures\": 2, "
      "\"rng_seed\": 19}}";
  EXPECT_TRUE(fx.service.handle_line(line, emit));
  ASSERT_FALSE(lines.empty());
  const std::string& result = lines.back();
  EXPECT_NE(result.find("\"type\": \"result\""), std::string::npos);
  EXPECT_NE(result.find("\"id\": \"e1\""), std::string::npos);
  EXPECT_NE(result.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(result.find("\"detect_hash\": \""), std::string::npos);
  // The process-wide run report is written at shutdown, not per result.
  EXPECT_EQ(result.find("\"report\""), std::string::npos);
  EXPECT_EQ(result.find('\n'), std::string::npos);

  lines.clear();
  EXPECT_TRUE(fx.service.handle_line(line, emit));
  EXPECT_NE(lines.back().find("\"cache\": \"hit\""), std::string::npos);
}

#if FBT_OBS_ENABLED
/// Holds each caller until `parties` callers have arrived. Gives up after a
/// minute and returns false, so a broken run fails instead of hanging.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : waiting_(parties) {}
  bool arrive_and_wait() {
    std::unique_lock lock(mutex_);
    if (--waiting_ == 0) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_for(lock, std::chrono::minutes(1),
                        [this] { return waiting_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiting_;
};

std::string streaming_request(const std::string& id,
                              const std::string& target) {
  return R"({"type": "experiment", "id": ")" + id + R"(", "target": ")" +
         target +
         R"(", "driver": "buffers", "stream_progress": true, "config": )"
         R"({"cal_sequences": 4, "cal_length": 400, "segment_length": 200, )"
         R"("max_segment_failures": 2, "max_sequence_failures": 2, )"
         R"("rng_seed": 19}})";
}

std::size_t count_containing(const std::vector<std::string>& lines,
                             const std::string& needle) {
  std::size_t n = 0;
  for (const std::string& l : lines) n += l.find(needle) != std::string::npos;
  return n;
}

TEST(ExperimentService, ConcurrentStreamsCarryOnlyTheirOwnProgress) {
  // Two cold streaming requests on different targets run at once: each
  // holds its first progress line until the other has sent one too, so
  // both constructions are under way together. Each stream must still hold
  // only its own run's events, live, ahead of its result line.
  Fixture fx;
  const std::string ids[2] = {"stream-a", "stream-b"};
  const std::string targets[2] = {"s298", "s386"};
  Rendezvous both_streaming(2);
  std::vector<std::string> lines[2];
  bool met[2] = {false, false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      bool first_progress = true;
      fx.service.handle_line(
          streaming_request(ids[c], targets[c]), [&](const std::string& l) {
            if (first_progress &&
                l.find("\"type\": \"progress\"") != std::string::npos) {
              first_progress = false;
              met[c] = both_streaming.arrive_and_wait();
            }
            lines[c].push_back(l);
          });
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < 2; ++c) {
    SCOPED_TRACE(ids[c]);
    EXPECT_TRUE(met[c]);
    ASSERT_GE(lines[c].size(), 2u);
    EXPECT_NE(lines[c].back().find("\"type\": \"result\""),
              std::string::npos);
    EXPECT_NE(lines[c].back().find("\"cache\": \"miss\""),
              std::string::npos);
    const std::string own_id = "\"id\": \"" + ids[c] + "\"";
    for (std::size_t i = 0; i + 1 < lines[c].size(); ++i) {
      EXPECT_NE(lines[c][i].find("\"type\": \"progress\""),
                std::string::npos)
          << lines[c][i];
      EXPECT_NE(lines[c][i].find(own_id), std::string::npos) << lines[c][i];
    }
    EXPECT_EQ(count_containing(lines[c], "\"type\": \"construct_started\""),
              1u);
    EXPECT_EQ(
        count_containing(lines[c], "\"type\": \"construct_finished\""), 1u);
  }
}

const obs::PhaseNode* child_named(const obs::PhaseNode& node,
                                  const std::string& name) {
  for (const obs::PhaseNode& c : node.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(ExperimentService, ColdRequestTracesAsOneTreeOnItsOwnThread) {
  // The flow runs on the request's thread and only its fault grading fans
  // out over the pool, so the request's spans nest as one tree on one
  // track, and no span anywhere is left pointing at a parent elsewhere.
  obs::PhaseTrace::instance().clear();
  jobs::JobSystem jobs(2);
  ArtifactCache cache;
  ExperimentService service(jobs, cache);
  std::vector<std::string> lines;
  ASSERT_TRUE(service.handle_line(
      R"({"type": "experiment", "id": "t", "target": "s298", )"
      R"("driver": "buffers", "stream_progress": false, "config": )"
      R"({"cal_sequences": 4, "cal_length": 400, "segment_length": 200, )"
      R"("max_segment_failures": 2, "max_sequence_failures": 2, )"
      R"("rng_seed": 19, "num_threads": 2}})",
      [&lines](const std::string& l) { lines.push_back(l); }));
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_NE(lines[0].find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_GT(jobs.scheduler_snapshot().submitted, 0u);  // grading fanned out

  const std::vector<obs::PhaseNode> roots = obs::PhaseTrace::instance().roots();
  const obs::PhaseNode* request = nullptr;
  for (const obs::PhaseNode& root : roots) {
    EXPECT_EQ(root.parent_span_id, 0u) << root.name;
    if (root.name == "serve_request") request = &root;
  }
  ASSERT_NE(request, nullptr);
  const obs::PhaseNode* compute = child_named(*request, "request_compute");
  ASSERT_NE(compute, nullptr);
  const obs::PhaseNode* flow = child_named(*compute, "bist_experiment");
  ASSERT_NE(flow, nullptr);
  const obs::PhaseNode* construct = child_named(*flow, "construct");
  ASSERT_NE(construct, nullptr);
  const obs::PhaseNode* grade = child_named(*construct, "grade");
  ASSERT_NE(grade, nullptr);
  for (const obs::PhaseNode* span : {compute, flow, construct, grade}) {
    EXPECT_EQ(span->tid, request->tid) << span->name;
  }
  EXPECT_EQ(grade->parent_span_id, construct->span_id);
}
#endif  // FBT_OBS_ENABLED

/// `line` with its "elapsed_ms" member removed (the one field of a result
/// that legitimately differs between two answers to the same request).
std::string without_elapsed(const std::string& line) {
  const std::size_t at = line.find(", \"elapsed_ms\": ");
  if (at == std::string::npos) return line;
  const std::size_t end = line.find_first_of(",}", at + 2);
  return line.substr(0, at) + line.substr(end);
}

TEST(ExperimentService, ResultLineDoesNotGrowWithUptime) {
  // A hit answered after the daemon has served other requests must be the
  // same line as the first hit: nothing process-wide rides in a result.
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  const auto request_line = [](int rng_seed) {
    return std::string(
               R"({"type": "experiment", "id": "a", "target": "s298", )"
               R"("driver": "buffers", "stream_progress": false, "config": )"
               R"({"cal_sequences": 4, "cal_length": 400, )"
               R"("segment_length": 200, "max_segment_failures": 2, )"
               R"("max_sequence_failures": 2, "rng_seed": )") +
           std::to_string(rng_seed) + "}}";
  };
  const auto answer = [&](int rng_seed) {
    lines.clear();
    EXPECT_TRUE(fx.service.handle_line(request_line(rng_seed), emit));
    EXPECT_EQ(lines.size(), 1u);
    return lines.empty() ? std::string() : lines.back();
  };

  answer(19);
  const std::string first_hit = answer(19);
  ASSERT_NE(first_hit.find("\"cache\": \"hit\""), std::string::npos);
  for (int seed = 20; seed < 24; ++seed) {
    EXPECT_NE(answer(seed).find("\"cache\": \"miss\""), std::string::npos)
        << seed;
  }
  const std::string repeat_hit = answer(19);
  EXPECT_EQ(without_elapsed(repeat_hit), without_elapsed(first_hit));
  EXPECT_NE(without_elapsed(first_hit), first_hit);
}

TEST(ExperimentService, InlineNetlistSharesKeyWithTextualVariant) {
  Fixture fx;
  const std::string bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                            "f = DFF(y)\ny = AND(a, b)\n";
  const std::string noisy = "# same circuit\nINPUT(a)\n INPUT(b)\n"
                            "OUTPUT(y)\nf = DFF(y)\ny = AND(a,b)\n";
  ExperimentRequest request = small_request();
  request.target = "inline-a";
  request.netlist_bench = bench;
  request.config.calibration.num_sequences = 2;
  request.config.calibration.sequence_length = 64;
  request.config.generation.segment_length = 32;
  bool hit = true;
  const ExperimentSummary cold = fx.service.run_experiment(request, &hit);
  EXPECT_FALSE(hit);
  // The same circuit spelled differently canonicalizes to the same content
  // key -- a warm hit.
  request.target = "inline-b";
  request.netlist_bench = noisy;
  const ExperimentSummary warm = fx.service.run_experiment(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(hash_detect_counts(cold.detect_count),
            hash_detect_counts(warm.detect_count));
}

TEST(ExperimentService, ConfigOutsideTheWorkCapsIsAnErrorAndServingContinues) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  const char* absurd[] = {
      R"("segment_length": 201)",          R"("segment_length": 0)",
      R"("segment_length": -4)",           R"("segment_length": 1e300)",
      R"("cal_length": 1e12)",             R"("cal_sequences": 1e9)",
      R"("max_sequence_failures": 1e15)",  R"("tpg_lfsr_stages": 1)",
      R"("cal_lfsr_stages": 33)",          R"("tpg_lfsr_stages": 4294967298)",
      R"("rtl_misr_stages": 0)",           R"("tpg_bias_bits": 1e9)",
      R"("num_threads": 100000000)",       R"("num_threads": 65)",
      R"("detect_limit": 0)",              R"("scan_max_chains": 0)",
      R"("scan_min_chain_length": 0)",
  };
  for (const char* field : absurd) {
    lines.clear();
    EXPECT_TRUE(fx.service.handle_line(
        std::string(R"({"type": "experiment", "id": "a", "target": "s298", )"
                    R"("config": {)") + field + "}}",
        emit))
        << field;
    ASSERT_EQ(lines.size(), 1u) << field;
    EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos)
        << field;
  }
  lines.clear();
  EXPECT_TRUE(fx.service.handle_line(R"({"type": "ping", "id": "p"})", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"pong\""), std::string::npos);
}

TEST(ExperimentService, SweepConfigsStayWithinTheWorkCaps) {
  // The flow_smoke config a sweeping client sends, and the embedded-block
  // variant with L = 100.
  for (const char* segment : {"200", "100"}) {
    Request request;
    std::string error;
    const std::string line =
        std::string(R"({"type":"experiment","id":"r0","target":"s298",)"
                    R"("driver":"buffers","stream_progress":false,"config":)"
                    R"({"cal_sequences":4,"cal_length":400,"segment_length":)") +
        segment +
        R"(,"max_segment_failures":2,"max_sequence_failures":2,)"
        R"("rng_seed":2147483647}})";
    ASSERT_TRUE(parse_request(line, request, error)) << error;
    EXPECT_EQ(request.experiment.config.generation.segment_length,
              std::stoul(segment));
    EXPECT_EQ(request.experiment.config.generation.rng_seed, 2147483647u);
  }
}

TEST(ExperimentService, RetiredSpeculationLanesMemberIsIgnored) {
  // Older clients still send "speculation_lanes"; the line parses, and the
  // request is the same experiment as one without the member.
  const std::string head =
      R"({"type":"experiment","id":"r0","target":"s298","config":)"
      R"({"segment_length":200)";
  Request with;
  Request without;
  std::string error;
  ASSERT_TRUE(parse_request(head + R"(,"speculation_lanes":8}})", with, error))
      << error;
  ASSERT_TRUE(parse_request(head + "}}", without, error)) << error;
  const CacheKey target = KeyBuilder().str("s298").finish();
  const CacheKey driver = KeyBuilder().str("buffers").finish();
  EXPECT_EQ(experiment_cache_key(target, driver, with.experiment.config),
            experiment_cache_key(target, driver, without.experiment.config));
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  for (std::size_t sent = 0; sent < data.size();) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Everything the server sends until it closes the connection.
std::string recv_until_eof(int fd) {
  std::string out;
  char chunk[4096];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(SocketServer, OverLongLineIsRefusedAndTheDaemonKeepsServing) {
  Fixture fx;
  const std::string path =
      ::testing::TempDir() + "fbt_serve_test_" + std::to_string(::getpid());
  SocketServer server(fx.service, path);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  // Stops and joins the accept loop on every exit path, failed asserts too.
  struct AcceptLoop {
    SocketServer& server;
    std::thread thread{[this] { server.serve_forever(); }};
    ~AcceptLoop() {
      server.request_stop();
      thread.join();
    }
  } accept_loop{server};

  // One byte over the cap, with no newline: an error line, then EOF.
  const int big = connect_unix(path);
  ASSERT_GE(big, 0);
  EXPECT_TRUE(send_all(big, std::string(SocketServer::kMaxLineBytes + 1, 'x')));
  const std::string reply = recv_until_eof(big);
  ::close(big);
  EXPECT_NE(reply.find("\"type\": \"error\""), std::string::npos);
  EXPECT_NE(reply.find("exceeds"), std::string::npos);

  // A fresh connection is served as usual.
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(send_all(fd, "{\"type\": \"ping\", \"id\": \"after\"}\n"));
  ::shutdown(fd, SHUT_WR);
  const std::string pong = recv_until_eof(fd);
  ::close(fd);
  EXPECT_NE(pong.find("\"type\": \"pong\""), std::string::npos);

  ::unlink(path.c_str());
}

}  // namespace
}  // namespace fbt::serve
