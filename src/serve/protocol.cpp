#include "serve/protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/run_report.hpp"  // json_escape
#include "serve/cache_key.hpp"

namespace fbt::serve {

namespace {

double num_or(const obs::JsonValue& obj, const std::string& key,
              double fallback) {
  const obs::JsonValue* v = obj.find(key);
  return v != nullptr ? v->as_number(fallback) : fallback;
}

// Negative, NaN and out-of-range numbers saturate to the largest value, so
// the caps in check_config() reject them instead of a cast being undefined.
std::uint64_t uint_or(const obs::JsonValue& obj, const std::string& key,
                      std::uint64_t fallback) {
  const double v = num_or(obj, key, static_cast<double>(fallback));
  if (!(v >= 0.0 && v < 18446744073709551616.0)) return UINT64_MAX;
  return static_cast<std::uint64_t>(v);
}

unsigned u32_or(const obs::JsonValue& obj, const std::string& key,
               unsigned fallback) {
  return static_cast<unsigned>(
      std::min<std::uint64_t>(uint_or(obj, key, fallback), UINT32_MAX));
}

// Work caps of one experiment request: far above any configuration the
// benches and the dissertation use (30 sequences of 30000 cycles), far below
// what would pin a worker for hours or exhaust memory.
constexpr std::uint64_t kMaxCycles = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxSequences = std::uint64_t{1} << 12;
// Every grading thread owns a copy of the packed fault kernel.
constexpr std::uint64_t kMaxThreads = 64;
constexpr unsigned kMinLfsrStages = 2;   // Lfsr::primitive_taps table
constexpr unsigned kMaxLfsrStages = 32;
constexpr unsigned kMaxBiasBits = 32;

bool bool_or(const obs::JsonValue& obj, const std::string& key,
             bool fallback) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind == obs::JsonValue::Kind::kBool) return v->boolean;
  return v->as_number(fallback ? 1.0 : 0.0) != 0.0;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string check_config(const BistExperimentConfig& cfg) {
  const std::uint64_t segment = cfg.generation.segment_length;
  if (segment < 2 || segment % 2 != 0 || segment > kMaxCycles) {
    return "segment_length must be even, at least 2 and at most " +
           std::to_string(kMaxCycles);
  }
  if (cfg.calibration.sequence_length > kMaxCycles) {
    return "cal_length must be at most " + std::to_string(kMaxCycles);
  }
  if (cfg.calibration.num_sequences > kMaxSequences ||
      cfg.generation.max_segment_failures > kMaxSequences ||
      cfg.generation.max_sequence_failures > kMaxSequences) {
    return "cal_sequences, max_segment_failures and max_sequence_failures "
           "must be at most " + std::to_string(kMaxSequences);
  }
  if (cfg.num_threads > kMaxThreads) {
    return "num_threads must be at most " + std::to_string(kMaxThreads);
  }
  for (const unsigned stages :
       {cfg.calibration.tpg.lfsr_stages, cfg.generation.tpg.lfsr_stages,
        cfg.rtl_misr_stages}) {
    if (stages < kMinLfsrStages || stages > kMaxLfsrStages) {
      return "LFSR and MISR stage counts must lie in [" +
             std::to_string(kMinLfsrStages) + ", " +
             std::to_string(kMaxLfsrStages) + "]";
    }
  }
  if (cfg.calibration.tpg.bias_bits > kMaxBiasBits ||
      cfg.generation.tpg.bias_bits > kMaxBiasBits) {
    return "bias_bits must be at most " + std::to_string(kMaxBiasBits);
  }
  // Zero would only fail in the flow, after calibration already ran.
  if (cfg.generation.detect_limit == 0 || cfg.scan.max_chains == 0 ||
      cfg.scan.min_chain_length == 0) {
    return "detect_limit, scan_max_chains and scan_min_chain_length must be "
           "at least 1";
  }
  return {};
}

bool parse_request(const std::string& line, Request& out, std::string& error) {
  obs::JsonValue doc;
  if (!obs::json_parse(line, doc, error)) return false;
  if (!doc.is_object()) {
    error = "request must be a JSON object";
    return false;
  }
  const obs::JsonValue* type = doc.find("type");
  const std::string kind =
      type != nullptr ? type->as_string("") : std::string();
  if (const obs::JsonValue* id = doc.find("id")) {
    out.id = id->as_string("");
  } else {
    out.id.clear();
  }
  if (kind == "ping") {
    out.type = RequestType::kPing;
    return true;
  }
  if (kind == "stats") {
    out.type = RequestType::kStats;
    return true;
  }
  if (kind == "shutdown") {
    out.type = RequestType::kShutdown;
    return true;
  }
  if (kind != "experiment") {
    error = "unknown request type \"" + kind + "\"";
    return false;
  }
  out.type = RequestType::kExperiment;
  ExperimentRequest& exp = out.experiment;
  exp = ExperimentRequest{};
  if (const obs::JsonValue* t = doc.find("target")) {
    exp.target = t->as_string("");
  }
  if (const obs::JsonValue* n = doc.find("netlist_bench")) {
    exp.netlist_bench = n->as_string("");
  }
  if (exp.target.empty() && exp.netlist_bench.empty()) {
    error = "experiment request needs \"target\" or \"netlist_bench\"";
    return false;
  }
  if (const obs::JsonValue* d = doc.find("driver")) {
    exp.driver = d->as_string("");
  }
  exp.stream_progress = bool_or(doc, "stream_progress", true);

  BistExperimentConfig& cfg = exp.config;
  cfg.target_name = exp.target;
  cfg.driver_name = exp.driver;
  if (const obs::JsonValue* c = doc.find("config"); c != nullptr &&
                                                    c->is_object()) {
    const obs::JsonValue& o = *c;
    cfg.calibration.num_sequences =
        uint_or(o, "cal_sequences", cfg.calibration.num_sequences);
    cfg.calibration.sequence_length =
        uint_or(o, "cal_length", cfg.calibration.sequence_length);
    cfg.calibration.rng_seed =
        uint_or(o, "cal_rng_seed", cfg.calibration.rng_seed);
    cfg.calibration.tpg.lfsr_stages =
        u32_or(o, "cal_lfsr_stages", cfg.calibration.tpg.lfsr_stages);
    cfg.calibration.tpg.bias_bits =
        u32_or(o, "cal_bias_bits", cfg.calibration.tpg.bias_bits);
    cfg.generation.tpg.lfsr_stages =
        u32_or(o, "tpg_lfsr_stages", cfg.generation.tpg.lfsr_stages);
    cfg.generation.tpg.bias_bits =
        u32_or(o, "tpg_bias_bits", cfg.generation.tpg.bias_bits);
    cfg.generation.segment_length =
        uint_or(o, "segment_length", cfg.generation.segment_length);
    cfg.generation.max_segment_failures = uint_or(
        o, "max_segment_failures", cfg.generation.max_segment_failures);
    cfg.generation.max_sequence_failures = uint_or(
        o, "max_sequence_failures", cfg.generation.max_sequence_failures);
    cfg.generation.rng_seed = uint_or(o, "rng_seed", cfg.generation.rng_seed);
    cfg.generation.detect_limit =
        u32_or(o, "detect_limit", cfg.generation.detect_limit);
    cfg.scan.max_chains = uint_or(o, "scan_max_chains", cfg.scan.max_chains);
    cfg.scan.min_chain_length =
        uint_or(o, "scan_min_chain_length", cfg.scan.min_chain_length);
    cfg.reduce_sequences =
        bool_or(o, "reduce_sequences", cfg.reduce_sequences);
    cfg.num_threads = uint_or(o, "num_threads", cfg.num_threads);
    cfg.fault_pack_width =
        uint_or(o, "fault_pack_width", cfg.fault_pack_width);
    cfg.emit_rtl = bool_or(o, "emit_rtl", cfg.emit_rtl);
    cfg.rtl_misr_stages = u32_or(o, "rtl_misr_stages", cfg.rtl_misr_stages);
  }
  error = check_config(cfg);
  return error.empty();
}

std::string hash_detect_counts(const std::vector<std::uint32_t>& counts) {
  KeyBuilder b;
  b.str("detect_counts");
  b.u64(counts.size());
  b.bytes(counts.data(), counts.size() * sizeof(std::uint32_t));
  return b.finish().hex();
}

std::string hash_first_detects(const std::vector<FaultFirstDetect>& fd) {
  KeyBuilder b;
  b.str("first_detects");
  b.u64(fd.size());
  for (const FaultFirstDetect& f : fd) {
    b.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.sequence)))
        .u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.segment)))
        .u64(static_cast<std::uint64_t>(f.test))
        .u64(f.seed);
  }
  return b.finish().hex();
}

namespace {

void append_latency(std::string& out, const char* key,
                    const LatencyStats& l) {
  out += "\"";
  out += key;
  out += "\": {\"count\": " + std::to_string(l.count);
  out += ", \"mean_ms\": " + fmt_double(l.mean_ms);
  out += ", \"p50_ms\": " + fmt_double(l.p50_ms);
  out += ", \"p99_ms\": " + fmt_double(l.p99_ms);
  out += ", \"p99_clamped\": ";
  out += l.p99_clamped ? "true" : "false";
  out += "}";
}

}  // namespace

std::string render_stats(const std::string& id, const ServiceStats& s) {
  // The flat cache/request fields predate the latency section and stay
  // byte-compatible with the v1 stats line (tests and CI grep for them).
  std::string out = "{\"type\": \"stats\", \"id\": \"";
  out += obs::json_escape(id);
  out += "\", \"requests_total\": " + std::to_string(s.requests_total);
  out += ", \"cache_hits\": " + std::to_string(s.cache_hits);
  out += ", \"cache_misses\": " + std::to_string(s.cache_misses);
  out += ", \"cache_evictions\": " + std::to_string(s.cache_evictions);
  out += ", \"cache_entries\": " + std::to_string(s.cache_entries);
  out += ", \"cache_bytes\": " + std::to_string(s.cache_bytes);
  out += ", \"latency\": {";
  append_latency(out, "cold", s.cold);
  out += ", ";
  append_latency(out, "warm", s.warm);
  out += ", ";
  append_latency(out, "queue", s.queue);
  out += ", ";
  append_latency(out, "cache_lookup", s.cache_lookup);
  out += ", ";
  append_latency(out, "compute", s.compute);
  out += ", ";
  append_latency(out, "render", s.render);
  out += "}";
  const SchedulerStats& sch = s.scheduler;
  out += ", \"scheduler\": {\"workers\": " + std::to_string(sch.workers);
  out += ", \"queue_depth\": " + std::to_string(sch.queue_depth);
  out += ", \"submitted\": " + std::to_string(sch.submitted);
  out += ", \"executed\": " + std::to_string(sch.executed);
  out += ", \"busy_ms\": " + fmt_double(sch.busy_ms);
  out += ", \"utilization\": " + fmt_double(sch.utilization);
  out += "}}";
  return out;
}

std::string render_progress(const std::string& id,
                            const obs::JournalEvent& event) {
  std::string out = "{\"type\": \"progress\", \"id\": \"";
  out += obs::json_escape(id);
  out += "\", \"event\": ";
  out += obs::render_event_line(event);
  if (!out.empty() && out.back() == '\n') out.pop_back();
  out += "}";
  return out;
}

std::string render_result(const std::string& id, const ExperimentSummary& s,
                          bool cache_hit, const std::string& experiment_key,
                          double elapsed_ms) {
  std::string out = "{\"type\": \"result\", \"id\": \"";
  out += obs::json_escape(id);
  out += "\", \"cache\": \"";
  out += cache_hit ? "hit" : "miss";
  out += "\", \"target\": \"";
  out += obs::json_escape(s.target);
  out += "\", \"experiment_key\": \"" + experiment_key + "\"";
  out += ", \"swa_func_percent\": " + fmt_double(s.swa_func_percent);
  out += ", \"num_tests\": " + std::to_string(s.num_tests);
  out += ", \"num_seeds\": " + std::to_string(s.num_seeds);
  out += ", \"num_faults\": " + std::to_string(s.num_faults);
  out += ", \"detected\": " + std::to_string(s.detected);
  out += ", \"fault_coverage_percent\": " +
         fmt_double(s.fault_coverage_percent);
  out += ", \"overhead_percent\": " + fmt_double(s.overhead_percent);
  out += ", \"detect_hash\": \"" + hash_detect_counts(s.detect_count) + "\"";
  out += ", \"first_detect_hash\": \"" + hash_first_detects(s.first_detect) +
         "\"";
  out += ", \"elapsed_ms\": " + fmt_double(elapsed_ms);
  out += "}";
  return out;
}

std::string render_error(const std::string& id, const std::string& message) {
  return "{\"type\": \"error\", \"id\": \"" + obs::json_escape(id) +
         "\", \"message\": \"" + obs::json_escape(message) + "\"}";
}

std::string render_pong(const std::string& id) {
  return "{\"type\": \"pong\", \"id\": \"" + obs::json_escape(id) + "\"}";
}

std::string render_bye(const std::string& id) {
  return "{\"type\": \"bye\", \"id\": \"" + obs::json_escape(id) + "\"}";
}

}  // namespace fbt::serve
