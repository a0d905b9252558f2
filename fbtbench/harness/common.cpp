#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bist/area_model.hpp"
#include "bist/hardware_plan.hpp"
#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "fault/compaction.hpp"
#include "fault/fault_sim.hpp"
#include "jobs/job_system.hpp"
#include "netlist/flat_fanins.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/require.hpp"

namespace fbtbench {

const Json& at(const Json& obj, const std::string& key) {
  const Json* v = obj.find(key);
  fbt::require(v != nullptr, "spec", "missing key \"" + key + "\"");
  return *v;
}

std::uint64_t u64(const Json& obj, const std::string& key) {
  const Json& v = at(obj, key);
  fbt::require(v.is_number() && v.number >= 0, "spec",
               "\"" + key + "\" is not a non-negative number");
  return static_cast<std::uint64_t>(v.number);
}

const std::string& str(const Json& obj, const std::string& key) {
  const Json& v = at(obj, key);
  fbt::require(v.is_string(), "spec", "\"" + key + "\" is not a string");
  return v.string;
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void write_raw(const std::string& path, const RawResult& raw) {
  std::ostringstream o;
  o << "{\"workload\": " << quoted(raw.workload) << ",\n\"setup_s\": [";
  for (std::size_t i = 0; i < raw.setup_s.size(); ++i) {
    o << (i ? ", " : "") << number(raw.setup_s[i]);
  }
  o << "],\n\"loop_s\": " << number(raw.loop_s)
    << ",\n\"peak_rss_mb\": " << number(raw.peak_rss_mb) << ",\n\"ops\": [";
  for (std::size_t i = 0; i < raw.ops.size(); ++i) {
    const OpRecord& r = raw.ops[i];
    o << (i ? ",\n" : "\n") << "{\"index\": " << r.index
      << ", \"latency_ms\": " << number(r.latency_ms)
      << ", \"end_s\": " << number(r.end_s)
      << ", \"ok\": " << (r.ok ? "true" : "false")
      << ", \"error\": " << quoted(r.error)
      << ", \"fingerprint\": " << quoted(r.fingerprint)
      << ", \"kind\": " << quoted(r.kind)
      << ", \"result_bytes\": " << number(r.result_bytes)
      << ", \"coverage_pct\": " << number(r.coverage_pct)
      << ", \"tests\": " << number(r.tests)
      << ", \"seeds\": " << number(r.seeds) << "}";
  }
  o << "],\n\"check_failures\": [";
  for (std::size_t i = 0; i < raw.check_failures.size(); ++i) {
    o << (i ? ", " : "") << quoted(raw.check_failures[i]);
  }
  o << "],\n\"values\": {";
  bool first = true;
  for (const auto& [name, value] : raw.values) {
    o << (first ? "" : ", ") << quoted(name) << ": " << number(value);
    first = false;
  }
  o << "},\n\"spans\": [";
  for (std::size_t i = 0; i < raw.spans.size(); ++i) {
    const SpanRecord& s = raw.spans[i];
    o << (i ? ",\n" : "\n") << "[" << quoted(s.name) << ", " << s.start_ns
      << ", " << s.end_ns << ", " << s.parent << ", " << s.op << "]";
  }
  o << "]}\n";
  std::ofstream out(path);
  out << o.str();
  fbt::require(static_cast<bool>(out), "harness", "cannot write " + path);
}

fbt::BistExperimentConfig flow_config(const Json& flow,
                                      const std::string& target,
                                      const std::string& driver,
                                      std::uint64_t rng_seed) {
  fbt::BistExperimentConfig cfg;
  cfg.target_name = target;
  cfg.driver_name = driver;
  cfg.calibration.num_sequences = u64(flow, "cal_sequences");
  cfg.calibration.sequence_length = u64(flow, "cal_length");
  cfg.generation.segment_length = u64(flow, "segment_length");
  cfg.generation.max_segment_failures = u64(flow, "max_segment_failures");
  cfg.generation.max_sequence_failures = u64(flow, "max_sequence_failures");
  cfg.generation.rng_seed = rng_seed;
  cfg.num_threads = 1;
  if (at(flow, "equal_scan").boolean) {
    cfg.scan =
        fbt::equal_partition_scan_config(fbt::benchmark_spec(target).num_flops);
  }
  cfg.emit_rtl = at(flow, "emit_rtl").boolean;
  return cfg;
}

std::string fingerprint(
    const std::vector<std::uint32_t>& detect_count,
    const std::vector<fbt::FaultFirstDetect>& first_detect) {
  return fbt::serve::hash_detect_counts(detect_count) + "/" +
         fbt::serve::hash_first_detects(first_detect);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double counter(const std::string& name) {
  return static_cast<double>(fbt::obs::registry().counter(name).value());
}

CounterDelta::CounterDelta(std::vector<std::string> names)
    : names_(std::move(names)),
      before_(read()),
      excluded_(names_.size(), 0.0) {}

std::vector<double> CounterDelta::read() const {
  std::vector<double> values;
  for (const std::string& n : names_) values.push_back(counter(n));
  return values;
}

void CounterDelta::store(RawResult& raw, const std::string& prefix) const {
  const std::vector<double> now = read();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    raw.values[prefix + "." + names_[i]] = now[i] - before_[i] - excluded_[i];
  }
}

void note_unserved(RawResult& raw, std::size_t planned, double deadline_s) {
  if (raw.ops.size() < planned) {
    raw.check_failures.push_back(
        std::to_string(planned - raw.ops.size()) + " of " +
        std::to_string(planned) + " operations not run within the " +
        std::to_string(deadline_s) + " s deadline");
  }
}

namespace {

void add(FlowStats* stats, double FlowStats::*field, double v) {
  if (stats != nullptr) stats->*field += v;
}

}  // namespace

fbt::BistExperimentResult composed_flow(const fbt::BistExperimentConfig& config,
                                        Tracer& tracer, std::int64_t op,
                                        FlowStats* stats) {
  using fbt::Netlist;
  Span root(tracer, "flow", op);
  const bool unconstrained =
      config.driver_name.empty() || config.driver_name == "buffers";

  Netlist target("");
  Netlist driver("");
  {
    Span s(tracer, "circuits.load", op);
    target = fbt::load_benchmark(config.target_name);
    driver = unconstrained ? fbt::make_buffers_block(target.num_inputs())
                           : fbt::load_benchmark(config.driver_name);
  }
  std::shared_ptr<const fbt::FlatFanins> flat;
  {
    Span s(tracer, "netlist.flatten", op);
    flat = std::make_shared<const fbt::FlatFanins>(target);
  }
  fbt::TransitionFaultList faults;
  {
    Span s(tracer, "fault.collapse", op);
    faults = fbt::TransitionFaultList::collapsed(target);
  }
  double swa_func = 0.0;
  {
    Span s(tracer, "bist.calibrate", op);
    swa_func =
        fbt::measure_swa_func(target, driver, config.calibration, flat)
            .peak_percent;
  }
  add(stats, &FlowStats::calibrate_gate_cycles,
      static_cast<double>(target.num_gates() + driver.num_gates()) *
          static_cast<double>(config.calibration.num_sequences *
                              config.calibration.sequence_length));

  // From here on, the calls a serve miss makes even when every artifact
  // above is cached.
  const std::int64_t warm_t0 = now_ns();
  fbt::FunctionalBistConfig gen = config.generation;
  gen.swa_bound_percent = swa_func;
  gen.bounded = !unconstrained;
  gen.num_threads = config.num_threads;
  gen.speculation_lanes = config.speculation_lanes;
  gen.fault_pack_width = config.fault_pack_width;

  fbt::ScanChains scan(target, config.scan);
  fbt::BistExperimentResult result{.target = std::move(target),
                                   .scan = std::move(scan),
                                   .faults = std::move(faults),
                                   .detect_count = {},
                                   .swa_func = swa_func,
                                   .run = {},
                                   .detected = 0,
                                   .fault_coverage_percent = 0.0,
                                   .hw_area = 0.0,
                                   .circuit_area_um2 = 0.0,
                                   .overhead_percent = 0.0,
                                   .nsp = 0,
                                   .generation = gen,
                                   .rtl = {}};
  result.detect_count.assign(result.faults.size(), 0);

  fbt::jobs::JobSystem& jobs = fbt::jobs::global_jobs();
  std::optional<fbt::FunctionalBistGenerator> generator;
  {
    Span s(tracer, "bist.construct", op);
    generator.emplace(result.target, gen, flat, &jobs);
    result.run = generator->run(result.faults, result.detect_count);
  }
  result.nsp = generator->tpg().cube().specified_count();
  result.seeds_before_reduction = result.run.num_seeds;
  result.sequences_before_reduction = result.run.sequences.size();

  if (config.reduce_sequences && result.run.sequences.size() > 1) {
    std::vector<std::size_t> group_of;
    group_of.reserve(result.run.tests.size());
    for (std::size_t s = 0; s < result.run.sequences.size(); ++s) {
      std::size_t tests_in_sequence = 0;
      for (const fbt::SegmentRecord& seg : result.run.sequences[s].segments) {
        tests_in_sequence += seg.num_tests;
      }
      group_of.insert(group_of.end(), tests_in_sequence, s);
    }
    fbt::require(group_of.size() == result.run.tests.size(), "composed_flow",
                 "test/sequence bookkeeping mismatch");
    std::vector<std::size_t> kept;
    {
      Span s(tracer, "fault.reduce", op);
      kept = fbt::reduce_groups(
          result.target, result.run.tests, result.faults, group_of,
          result.run.sequences.size(), config.num_threads, &jobs,
          static_cast<std::uint32_t>(config.fault_pack_width));
    }
    add(stats, &FlowStats::reduce_test_faults,
        static_cast<double>(result.run.tests.size()) *
            static_cast<double>(result.faults.size()));
    add(stats, &FlowStats::reduce_groups,
        static_cast<double>(result.run.sequences.size()));
    add(stats, &FlowStats::reduce_kept, static_cast<double>(kept.size()));
    if (kept.size() < result.run.sequences.size()) {
      fbt::FunctionalBistResult reduced;
      reduced.newly_detected = result.run.newly_detected;
      reduced.peak_swa = result.run.peak_swa;
      reduced.first_detect = std::move(result.run.first_detect);
      for (std::size_t t = 0; t < result.run.tests.size(); ++t) {
        if (std::find(kept.begin(), kept.end(), group_of[t]) != kept.end()) {
          reduced.tests.push_back(std::move(result.run.tests[t]));
        }
      }
      for (const std::size_t s : kept) {
        reduced.sequences.push_back(std::move(result.run.sequences[s]));
        for (const fbt::SegmentRecord& seg :
             reduced.sequences.back().segments) {
          reduced.lmax = std::max(reduced.lmax, seg.length);
          ++reduced.num_seeds;
        }
        reduced.nseg_max = std::max(reduced.nseg_max,
                                    reduced.sequences.back().segments.size());
      }
      reduced.num_tests = reduced.tests.size();
      result.run = std::move(reduced);
    }
  }

  for (const std::uint32_t c : result.detect_count) {
    if (c >= gen.detect_limit) ++result.detected;
  }
  result.fault_coverage_percent =
      result.faults.size() == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.detected) /
                static_cast<double>(result.faults.size());

  {
    Span s(tracer, "bist.cost", op);
    const fbt::BistHardwarePlan plan = fbt::plan_functional_bist_hardware(
        generator->tpg(), result.scan, result.run);
    result.hw_area = fbt::bist_area(plan);
    result.circuit_area_um2 = fbt::circuit_area(result.target);
    result.overhead_percent =
        100.0 * result.hw_area / result.circuit_area_um2;
  }
  if (config.emit_rtl && !result.run.sequences.empty()) {
    Span s(tracer, "rtl.emit", op);
    fbt::SessionConfig session;
    session.misr_stages = config.rtl_misr_stages;
    session.tpg = gen.tpg;
    result.rtl =
        fbt::emit_bist_rtl(result.target, result.run, result.scan, session);
  }
  if (result.rtl.has_value()) {
    add(stats, &FlowStats::rtl_bytes,
        static_cast<double>(result.rtl->verilog.size()));
  }
  add(stats, &FlowStats::warm_flow_ms,
      static_cast<double>(now_ns() - warm_t0) / 1e6);
  return result;
}

std::vector<std::string> check_experiment(const fbt::BistExperimentResult& r) {
  std::vector<std::string> problems;
  // Serial reference grader (pack width 1) over every fault, kept tests only.
  fbt::BroadsideFaultSim reference(r.target, 1);
  std::vector<std::uint32_t> counts(r.faults.size(), 0);
  reference.grade(r.run.tests, r.faults, counts, r.generation.detect_limit);
  std::size_t detected = 0;
  for (const std::uint32_t c : counts) {
    if (c >= r.generation.detect_limit) ++detected;
  }
  if (detected != r.detected) {
    problems.push_back("kept tests re-graded detect " +
                       std::to_string(detected) + " faults, result says " +
                       std::to_string(r.detected));
  }
  if (r.generation.bounded && r.run.peak_swa > r.swa_func) {
    problems.push_back("peak SWA " + std::to_string(r.run.peak_swa) +
                       " exceeds SWA_func " + std::to_string(r.swa_func));
  }
  if (r.rtl.has_value()) {
    const fbt::Tpg tpg(r.target, r.generation.tpg);
    const fbt::BistHardwarePlan plan =
        fbt::plan_functional_bist_hardware(tpg, r.scan, r.run);
    for (const std::string& m : fbt::reconcile_inventory(r.rtl->inventory,
                                                         plan)) {
      problems.push_back("RTL inventory vs plan: " + m);
    }
  }
  return problems;
}

}  // namespace fbtbench
