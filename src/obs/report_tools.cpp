#include "obs/report_tools.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace fbt::obs {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Value of a named entry in a top-level "gauges"/"counters" object; 0 when
/// the section or entry is missing so old-schema baselines stay diffable.
double metric_value(const JsonValue& report, const char* section,
                    const std::string& name) {
  const JsonValue* sec = report.find(section);
  if (sec == nullptr) return 0.0;
  const JsonValue* entry = sec->find(name);
  return entry == nullptr ? 0.0 : entry->as_number();
}

/// Scalar from the top-level "memory" section; 0 when the section or entry
/// is missing (schema v2 reports have no memory section and cannot regress).
double memory_value(const JsonValue& report, const std::string& name) {
  const JsonValue* mem = report.find("memory");
  if (mem == nullptr) return 0.0;
  const JsonValue* entry = mem->find(name);
  return entry == nullptr ? 0.0 : entry->as_number();
}

/// Summed total_ms across top-level phases (children are already included
/// in their parent's total).
double total_walltime_ms(const JsonValue& report) {
  const JsonValue* phases = report.find("phases");
  if (phases == nullptr || !phases->is_array()) return 0.0;
  double total = 0.0;
  for (const JsonValue& p : phases->array) {
    if (const JsonValue* ms = p.find("total_ms")) total += ms->as_number();
  }
  return total;
}

void append_metric_deltas(const JsonValue& baseline, const JsonValue& current,
                          const char* section, std::ostringstream& out) {
  const JsonValue* base_sec = baseline.find(section);
  const JsonValue* cur_sec = current.find(section);
  if (cur_sec == nullptr || !cur_sec->is_object()) return;
  for (const auto& [name, value] : cur_sec->object) {
    if (!value.is_number()) continue;
    const double before =
        base_sec != nullptr && base_sec->find(name) != nullptr
            ? base_sec->find(name)->as_number()
            : 0.0;
    if (before == value.number) continue;
    out << "  " << section << "." << name << ": " << num(before) << " -> "
        << num(value.number) << "\n";
  }
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Two-column name/value table from a JSON object of scalars.
void html_kv_table(const JsonValue* obj, std::ostringstream& out) {
  out << "<table><tr><th>name</th><th>value</th></tr>\n";
  if (obj != nullptr && obj->is_object()) {
    for (const auto& [name, value] : obj->object) {
      out << "<tr><td>" << html_escape(name) << "</td><td>";
      if (value.is_number()) {
        out << num(value.number);
      } else if (value.is_string()) {
        out << html_escape(value.string);
      }
      out << "</td></tr>\n";
    }
  }
  out << "</table>\n";
}

/// The coverage convergence curve as an inline SVG polyline; nothing when
/// fewer than two points exist.
void html_convergence_svg(const JsonValue& report, std::ostringstream& out) {
  const JsonValue* analytics = report.find("analytics");
  const JsonValue* curve =
      analytics != nullptr ? analytics->find("convergence") : nullptr;
  if (curve == nullptr || !curve->is_array() || curve->array.size() < 2) {
    out << "<p class=\"dim\">no convergence data</p>\n";
    return;
  }
  double max_tests = 1.0;
  double max_detected = 1.0;
  for (const JsonValue& p : curve->array) {
    if (const JsonValue* t = p.find("tests")) {
      max_tests = std::max(max_tests, t->as_number());
    }
    if (const JsonValue* d = p.find("detected")) {
      max_detected = std::max(max_detected, d->as_number());
    }
  }
  const double w = 640.0;
  const double h = 240.0;
  const double pad = 32.0;
  out << "<svg viewBox=\"0 0 " << num(w) << " " << num(h)
      << "\" class=\"curve\">\n";
  out << "<rect x=\"" << num(pad) << "\" y=\"8\" width=\"" << num(w - pad - 8)
      << "\" height=\"" << num(h - pad - 8)
      << "\" fill=\"none\" stroke=\"#ccc\"/>\n";
  out << "<polyline fill=\"none\" stroke=\"#0a6\" stroke-width=\"2\" "
         "points=\"";
  for (const JsonValue& p : curve->array) {
    const double t = p.find("tests") != nullptr
                         ? p.find("tests")->as_number()
                         : 0.0;
    const double d = p.find("detected") != nullptr
                         ? p.find("detected")->as_number()
                         : 0.0;
    const double x = pad + (t / max_tests) * (w - pad - 8);
    const double y = (h - pad) - (d / max_detected) * (h - pad - 16);
    out << num(x) << "," << num(y) << " ";
  }
  out << "\"/>\n";
  out << "<text x=\"" << num(w / 2) << "\" y=\"" << num(h - 6)
      << "\" text-anchor=\"middle\" class=\"axis\">tests applied (max "
      << num(max_tests) << ")</text>\n";
  out << "<text x=\"12\" y=\"" << num(h / 2)
      << "\" text-anchor=\"middle\" class=\"axis\" transform=\"rotate(-90 12 "
      << num(h / 2) << ")\">faults detected (max " << num(max_detected)
      << ")</text>\n";
  out << "</svg>\n";
}

void html_segment_yield(const JsonValue& report, std::ostringstream& out) {
  const JsonValue* analytics = report.find("analytics");
  const JsonValue* rows =
      analytics != nullptr ? analytics->find("segment_yield") : nullptr;
  if (rows == nullptr || !rows->is_array() || rows->array.empty()) {
    out << "<p class=\"dim\">no segment yield data</p>\n";
    return;
  }
  static const char* kCols[] = {"sequence", "segment",        "seed",
                                "tests",    "newly_detected", "peak_swa"};
  out << "<table><tr>";
  for (const char* c : kCols) out << "<th>" << c << "</th>";
  out << "</tr>\n";
  for (const JsonValue& row : rows->array) {
    out << "<tr>";
    for (const char* c : kCols) {
      const JsonValue* v = row.find(c);
      out << "<td>" << (v != nullptr ? num(v->as_number()) : "") << "</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n";
}

std::string bytes_human(double bytes) {
  char buf[64];
  if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

/// One horizontal bar row: label, value text, and a width-proportional bar.
void html_bar_row(const std::string& label, double value, double max_value,
                  std::ostringstream& out) {
  const double pct =
      max_value > 0.0 ? std::min(100.0, 100.0 * std::abs(value) / max_value)
                      : 0.0;
  out << "<tr><td>" << html_escape(label) << "</td><td>" << bytes_human(value)
      << "</td><td class=\"barcell\"><div class=\"bar\" style=\"width:"
      << num(pct) << "%\"></div></td></tr>\n";
}

/// Memory panel: RSS/allocation scalars, structure footprints as bars, and
/// per-top-level-phase RSS deltas as bars. Schema v2 reports have no
/// "memory" section; the panel degrades to a note so old reports render.
void html_memory_panel(const JsonValue& report, std::ostringstream& out) {
  const JsonValue* mem = report.find("memory");
  if (mem == nullptr || !mem->is_object()) {
    out << "<p class=\"dim\">no memory data (schema v2 report)</p>\n";
    return;
  }
  out << "<table><tr><th>name</th><th>value</th></tr>\n";
  static const char* kScalars[] = {"peak_rss_bytes",   "current_rss_bytes",
                                   "allocated_bytes",  "allocation_count",
                                   "bytes_per_gate",   "bytes_per_fault"};
  for (const char* name : kScalars) {
    const JsonValue* v = mem->find(name);
    if (v == nullptr || !v->is_number()) continue;
    out << "<tr><td>" << name << "</td><td>" << num(v->number);
    if (std::string(name).find("bytes") != std::string::npos &&
        std::string(name) != "bytes_per_gate" &&
        std::string(name) != "bytes_per_fault") {
      out << " (" << bytes_human(v->number) << ")";
    }
    out << "</td></tr>\n";
  }
  out << "</table>\n";

  const JsonValue* footprints = mem->find("footprints");
  if (footprints != nullptr && footprints->is_object() &&
      !footprints->object.empty()) {
    double max_bytes = 0.0;
    for (const auto& [name, value] : footprints->object) {
      if (value.is_number()) max_bytes = std::max(max_bytes, value.number);
    }
    out << "<h3>Structure footprints</h3>\n<table>"
           "<tr><th>structure</th><th>bytes</th><th></th></tr>\n";
    for (const auto& [name, value] : footprints->object) {
      if (value.is_number()) html_bar_row(name, value.number, max_bytes, out);
    }
    out << "</table>\n";
  }

  // Netlist arena telemetry: the finalize-time / arena-size gauge pair
  // published by Netlist::finalize(), plus the per-scale-point copies a
  // bench_scale sweep records (scale.gN.netlist_arena_bytes /
  // scale.gN.netlist_finalize_ms). Reports without the gauges (tools that
  // never finalize a netlist) skip the section.
  const JsonValue* gauges = report.find("gauges");
  if (gauges != nullptr && gauges->is_object()) {
    std::vector<std::pair<std::string, double>> rows;
    for (const auto& [name, value] : gauges->object) {
      if (!value.is_number()) continue;
      const bool arena_pair = name == "netlist.arena_bytes" ||
                              name == "netlist.finalize_duration_ms";
      const bool scale_pair =
          name.rfind("scale.", 0) == 0 &&
          (name.find(".netlist_arena_bytes") != std::string::npos ||
           name.find(".netlist_finalize_ms") != std::string::npos ||
           name.find(".parse_ms") != std::string::npos);
      if (arena_pair || scale_pair) rows.emplace_back(name, value.number);
    }
    if (!rows.empty()) {
      out << "<h3>Netlist arena</h3>\n<table>"
             "<tr><th>gauge</th><th>value</th></tr>\n";
      for (const auto& [name, value] : rows) {
        out << "<tr><td>" << html_escape(name) << "</td><td>" << num(value);
        if (name.find("bytes") != std::string::npos) {
          out << " (" << bytes_human(value) << ")";
        }
        out << "</td></tr>\n";
      }
      out << "</table>\n";
    }
  }

  const JsonValue* phases = report.find("phases");
  if (phases != nullptr && phases->is_array() && !phases->array.empty()) {
    double max_delta = 0.0;
    for (const JsonValue& p : phases->array) {
      if (const JsonValue* d = p.find("rss_delta_bytes")) {
        max_delta = std::max(max_delta, std::abs(d->as_number()));
      }
    }
    if (max_delta > 0.0) {
      out << "<h3>Per-phase RSS delta</h3>\n<table>"
             "<tr><th>phase</th><th>delta</th><th></th></tr>\n";
      for (const JsonValue& p : phases->array) {
        const JsonValue* d = p.find("rss_delta_bytes");
        if (d == nullptr) continue;
        const std::string name = p.find("name") != nullptr
                                     ? p.find("name")->as_string("")
                                     : "";
        html_bar_row(name, d->as_number(), max_delta, out);
      }
      out << "</table>\n";
    }
  }
}

void html_phases(const JsonValue* phases, int depth, std::ostringstream& out) {
  if (phases == nullptr || !phases->is_array()) return;
  for (const JsonValue& p : phases->array) {
    out << "<tr><td>";
    for (int i = 0; i < depth; ++i) out << "&nbsp;&nbsp;";
    out << html_escape(p.find("name") != nullptr
                           ? p.find("name")->as_string("")
                           : "");
    out << "</td><td>"
        << num(p.find("count") != nullptr ? p.find("count")->as_number() : 0)
        << "</td><td>"
        << num(p.find("total_ms") != nullptr ? p.find("total_ms")->as_number()
                                             : 0)
        << "</td><td>"
        << num(p.find("self_ms") != nullptr ? p.find("self_ms")->as_number()
                                            : 0)
        << "</td></tr>\n";
    html_phases(p.find("children"), depth + 1, out);
  }
}

/// One histogram-summary row (count/mean/p50/p99) from the "histograms"
/// section; skipped when absent. A clamped p99 is marked with "+" (the true
/// tail exceeded the last bucket).
void html_histogram_row(const JsonValue* histograms, const std::string& name,
                        std::ostringstream& out) {
  const JsonValue* h =
      histograms != nullptr ? histograms->find(name) : nullptr;
  if (h == nullptr || !h->is_object()) return;
  const JsonValue* clamped = h->find("p99_clamped");
  const bool is_clamped = clamped != nullptr &&
                          clamped->kind == JsonValue::Kind::kBool &&
                          clamped->boolean;
  out << "<tr><td>" << html_escape(name) << "</td><td>"
      << num(h->find("count") != nullptr ? h->find("count")->as_number() : 0)
      << "</td><td>"
      << num(h->find("mean") != nullptr ? h->find("mean")->as_number() : 0)
      << "</td><td>"
      << num(h->find("p50") != nullptr ? h->find("p50")->as_number() : 0)
      << "</td><td>"
      << num(h->find("p99") != nullptr ? h->find("p99")->as_number() : 0)
      << (is_clamped ? "+" : "") << "</td></tr>\n";
}

/// Scheduler panel: the schema-v4 "jobs" utilization section plus the
/// jobs.run_ms histogram summary. Reports
/// predating v4 (or with no scheduler activity) degrade to a note.
void html_scheduler_panel(const JsonValue& report, std::ostringstream& out) {
  const JsonValue* jobs = report.find("jobs");
  if (jobs == nullptr || !jobs->is_object()) {
    out << "<p class=\"dim\">no scheduler data (pre-v4 report)</p>\n";
    return;
  }
  bool any_nonzero = false;
  for (const auto& [name, value] : jobs->object) {
    any_nonzero |= value.is_number() && value.number != 0.0;
  }
  if (!any_nonzero) {
    out << "<p class=\"dim\">no scheduler activity in this run</p>\n";
    return;
  }
  html_kv_table(jobs, out);
  const JsonValue* histograms = report.find("histograms");
  std::ostringstream rows;
  html_histogram_row(histograms, "jobs.run_ms", rows);
  if (!rows.str().empty()) {
    out << "<h3>Job timing (ms)</h3>\n<table><tr><th>histogram</th>"
           "<th>count</th><th>mean</th><th>p50</th><th>p99</th></tr>\n"
        << rows.str() << "</table>\n";
  }
}

/// Request-latency panel: the serve.request_* histogram summaries -- totals
/// keyed cold vs warm plus the queue/cache/compute/render decomposition.
/// Reports with no serve traffic degrade to a note.
void html_request_latency_panel(const JsonValue& report,
                                std::ostringstream& out) {
  static const char* kNames[] = {
      "serve.request_total_cold_ms", "serve.request_total_warm_ms",
      "serve.request_queue_ms",      "serve.request_cache_ms",
      "serve.request_compute_ms",    "serve.request_render_ms"};
  const JsonValue* histograms = report.find("histograms");
  bool any_samples = false;
  for (const char* name : kNames) {
    const JsonValue* h =
        histograms != nullptr ? histograms->find(name) : nullptr;
    const JsonValue* count = h != nullptr ? h->find("count") : nullptr;
    any_samples |= count != nullptr && count->as_number() > 0.0;
  }
  if (!any_samples) {
    out << "<p class=\"dim\">no request latency data in this run</p>\n";
    return;
  }
  out << "<table><tr><th>histogram</th><th>count</th><th>mean</th>"
         "<th>p50</th><th>p99</th></tr>\n";
  for (const char* name : kNames) {
    html_histogram_row(histograms, name, out);
  }
  out << "</table>\n"
         "<p class=\"dim\">p99 marked + when clamped to the last bucket "
         "(true tail is larger)</p>\n";
}

}  // namespace

/// Serving panel: every serve.* / jobs.* counter and gauge, so a daemon or
/// bench_serve report shows request volume, cache effectiveness, and job
/// traffic at a glance. Reports with no serving activity (batch tools, or a
/// v3 report predating the serving layer) degrade to a note.
void html_serving_panel(const JsonValue& report, std::ostringstream& out) {
  std::vector<std::pair<std::string, double>> rows;
  for (const char* section : {"counters", "gauges"}) {
    const JsonValue* sec = report.find(section);
    if (sec == nullptr || !sec->is_object()) continue;
    for (const auto& [name, value] : sec->object) {
      if (!value.is_number()) continue;
      if (name.rfind("serve.", 0) != 0 && name.rfind("jobs.", 0) != 0) {
        continue;
      }
      rows.emplace_back(name, value.number);
    }
  }
  bool any_nonzero = false;
  for (const auto& [name, value] : rows) any_nonzero |= value != 0.0;
  if (rows.empty() || !any_nonzero) {
    out << "<p class=\"dim\">no serving activity in this run</p>\n";
    return;
  }
  out << "<table><tr><th>metric</th><th>value</th></tr>\n";
  for (const auto& [name, value] : rows) {
    out << "<tr><td>" << html_escape(name) << "</td><td>" << num(value)
        << "</td></tr>\n";
  }
  out << "</table>\n";
}

DiffResult diff_run_reports(const JsonValue& baseline, const JsonValue& current,
                            const DiffThresholds& thresholds) {
  DiffResult result;
  std::ostringstream summary;

  const double cov_before =
      metric_value(baseline, "gauges", "flow.fault_coverage_percent");
  const double cov_after =
      metric_value(current, "gauges", "flow.fault_coverage_percent");
  const double cov_drop = cov_before - cov_after;
  summary << "coverage: " << num(cov_before) << "% -> " << num(cov_after)
          << "%\n";
  if (thresholds.max_coverage_drop >= 0.0 &&
      cov_drop > thresholds.max_coverage_drop) {
    result.violations.push_back(
        "fault coverage dropped " + num(cov_drop) + " points (" +
        num(cov_before) + "% -> " + num(cov_after) + "%), allowed " +
        num(thresholds.max_coverage_drop));
  }

  const double tests_before = metric_value(baseline, "gauges", "flow.num_tests");
  const double tests_after = metric_value(current, "gauges", "flow.num_tests");
  summary << "tests: " << num(tests_before) << " -> " << num(tests_after)
          << "\n";
  if (thresholds.max_tests_increase_percent >= 0.0 && tests_before > 0.0) {
    const double increase =
        (tests_after - tests_before) / tests_before * 100.0;
    if (increase > thresholds.max_tests_increase_percent) {
      result.violations.push_back(
          "test count grew " + num(increase) + "% (" + num(tests_before) +
          " -> " + num(tests_after) + "), allowed " +
          num(thresholds.max_tests_increase_percent) + "%");
    }
  }

  const double wall_before = total_walltime_ms(baseline);
  const double wall_after = total_walltime_ms(current);
  summary << "walltime_ms: " << num(wall_before) << " -> " << num(wall_after)
          << "\n";
  if (thresholds.max_walltime_increase_percent >= 0.0 && wall_before > 0.0) {
    const double increase = (wall_after - wall_before) / wall_before * 100.0;
    if (increase > thresholds.max_walltime_increase_percent) {
      result.violations.push_back(
          "walltime grew " + num(increase) + "% (" + num(wall_before) +
          "ms -> " + num(wall_after) + "ms), allowed " +
          num(thresholds.max_walltime_increase_percent) + "%");
    }
  }

  const double rss_before = memory_value(baseline, "peak_rss_bytes");
  const double rss_after = memory_value(current, "peak_rss_bytes");
  summary << "peak_rss_bytes: " << num(rss_before) << " -> " << num(rss_after)
          << "\n";
  if (thresholds.max_peak_rss_increase_percent >= 0.0 && rss_before > 0.0) {
    const double increase = (rss_after - rss_before) / rss_before * 100.0;
    if (increase > thresholds.max_peak_rss_increase_percent) {
      result.violations.push_back(
          "peak RSS grew " + num(increase) + "% (" + num(rss_before) +
          " -> " + num(rss_after) + " bytes), allowed " +
          num(thresholds.max_peak_rss_increase_percent) + "%");
    }
  }

  const double bpg_before = memory_value(baseline, "bytes_per_gate");
  const double bpg_after = memory_value(current, "bytes_per_gate");
  summary << "bytes_per_gate: " << num(bpg_before) << " -> " << num(bpg_after)
          << "\n";
  if (thresholds.max_bytes_per_gate_increase_percent >= 0.0 &&
      bpg_before > 0.0) {
    const double increase = (bpg_after - bpg_before) / bpg_before * 100.0;
    if (increase > thresholds.max_bytes_per_gate_increase_percent) {
      result.violations.push_back(
          "bytes per gate grew " + num(increase) + "% (" + num(bpg_before) +
          " -> " + num(bpg_after) + "), allowed " +
          num(thresholds.max_bytes_per_gate_increase_percent) + "%");
    }
  }

  const double warm_speedup =
      metric_value(current, "gauges", "serve.warm_speedup");
  if (thresholds.min_warm_speedup >= 0.0) {
    summary << "warm_speedup: "
            << num(metric_value(baseline, "gauges", "serve.warm_speedup"))
            << " -> " << num(warm_speedup) << "\n";
    if (warm_speedup < thresholds.min_warm_speedup) {
      result.violations.push_back(
          "serve warm speedup " + num(warm_speedup) + "x below required " +
          num(thresholds.min_warm_speedup) + "x");
    }
  }

  const double pack_speedup =
      metric_value(current, "gauges", "fault.pack_speedup_64");
  if (thresholds.min_pack_speedup >= 0.0) {
    summary << "pack_speedup_64: "
            << num(metric_value(baseline, "gauges", "fault.pack_speedup_64"))
            << " -> " << num(pack_speedup) << "\n";
    if (pack_speedup < thresholds.min_pack_speedup) {
      result.violations.push_back(
          "PPSFP pack-64 grade speedup " + num(pack_speedup) +
          "x below required " + num(thresholds.min_pack_speedup) + "x");
    }
  }

  if (thresholds.max_obs_overhead_pct >= 0.0) {
    // Instrumentation-overhead gate: baseline is the FBT_OBS=OFF
    // bench_obs_overhead report, current the ON report; both publish the
    // min-of-N flow walltime as the obs.flow_run_ms gauge.
    const double off_ms = metric_value(baseline, "gauges", "obs.flow_run_ms");
    const double on_ms = metric_value(current, "gauges", "obs.flow_run_ms");
    summary << "obs_flow_run_ms: " << num(off_ms) << " -> " << num(on_ms)
            << "\n";
    if (off_ms > 0.0) {
      const double overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
      if (overhead_pct > thresholds.max_obs_overhead_pct) {
        result.violations.push_back(
            "observability overhead " + num(overhead_pct) + "% (" +
            num(off_ms) + "ms off -> " + num(on_ms) + "ms on), allowed " +
            num(thresholds.max_obs_overhead_pct) + "%");
      }
    }
  }

  summary << "changed metrics:\n";
  append_metric_deltas(baseline, current, "gauges", summary);
  append_metric_deltas(baseline, current, "counters", summary);

  result.regression = !result.violations.empty();
  result.summary_text = summary.str();
  return result;
}

std::string render_html_dashboard(const JsonValue& report,
                                  const std::string& journal_ndjson) {
  std::ostringstream out;
  const std::string tool =
      report.find("tool") != nullptr ? report.find("tool")->as_string("?") : "?";
  const std::string sha = report.find("git_sha") != nullptr
                              ? report.find("git_sha")->as_string("?")
                              : "?";
  const std::string stamp = report.find("timestamp_utc") != nullptr
                                ? report.find("timestamp_utc")->as_string("?")
                                : "?";

  out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
      << "<title>fbt run report: " << html_escape(tool) << "</title>\n"
      << "<style>\n"
         "body { font: 14px/1.45 system-ui, sans-serif; margin: 24px; "
         "color: #222; max-width: 960px; }\n"
         "h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; "
         "border-bottom: 1px solid #ddd; padding-bottom: 4px; }\n"
         "h3 { font-size: 14px; margin: 14px 0 4px; }\n"
         ".barcell { min-width: 220px; }\n"
         ".bar { background: #0a6; height: 10px; border-radius: 2px; }\n"
         "table { border-collapse: collapse; margin: 8px 0; }\n"
         "th, td { border: 1px solid #ddd; padding: 3px 10px; "
         "text-align: left; font-variant-numeric: tabular-nums; }\n"
         "th { background: #f5f5f5; }\n"
         ".dim { color: #888; }\n"
         ".curve { width: 100%; max-width: 640px; }\n"
         ".axis { font-size: 11px; fill: #666; }\n"
         "pre { background: #f8f8f8; border: 1px solid #eee; padding: 8px; "
         "overflow-x: auto; font-size: 12px; }\n"
         "</style></head><body>\n";

  out << "<h1>" << html_escape(tool) << "</h1>\n";
  out << "<p class=\"dim\">git " << html_escape(sha) << " &middot; "
      << html_escape(stamp) << "</p>\n";

  out << "<h2>Configuration</h2>\n";
  html_kv_table(report.find("config"), out);

  out << "<h2>Coverage convergence</h2>\n";
  html_convergence_svg(report, out);

  out << "<h2>Segment yield</h2>\n";
  html_segment_yield(report, out);

  out << "<h2>Serving</h2>\n";
  html_serving_panel(report, out);

  out << "<h2>Request latency</h2>\n";
  html_request_latency_panel(report, out);

  out << "<h2>Scheduler</h2>\n";
  html_scheduler_panel(report, out);

  out << "<h2>Memory</h2>\n";
  html_memory_panel(report, out);

  out << "<h2>Gauges</h2>\n";
  html_kv_table(report.find("gauges"), out);

  out << "<h2>Counters</h2>\n";
  html_kv_table(report.find("counters"), out);

  out << "<h2>Phases</h2>\n";
  out << "<table><tr><th>phase</th><th>count</th><th>total_ms</th>"
         "<th>self_ms</th></tr>\n";
  html_phases(report.find("phases"), 0, out);
  out << "</table>\n";

  out << "<h2>Event journal</h2>\n";
  if (journal_ndjson.empty()) {
    out << "<p class=\"dim\">no journal attached</p>\n";
  } else {
    // Cap the inline dump so a long run cannot produce a 100 MB page; the
    // tail carries the commit/finish events, which matter most.
    constexpr std::size_t kMaxLines = 500;
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in(journal_ndjson);
    std::size_t total = 0;
    while (std::getline(in, line)) {
      ++total;
      lines.push_back(line);
      if (lines.size() > kMaxLines) lines.erase(lines.begin());
    }
    if (total > kMaxLines) {
      out << "<p class=\"dim\">showing last " << kMaxLines << " of " << total
          << " events</p>\n";
    }
    out << "<pre>";
    for (const std::string& l : lines) out << html_escape(l) << "\n";
    out << "</pre>\n";
  }

  out << "</body></html>\n";
  return out.str();
}

}  // namespace fbt::obs
