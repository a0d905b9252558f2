#include "obs/phase.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/resource.hpp"

namespace fbt::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            trace_epoch())
          .count());
}

// Per-thread stack of open spans. Nodes live in the stack by value until the
// span closes; a closing span either becomes a child of the span below it or
// a root of the process-wide trace.
struct OpenSpan {
  PhaseNode node;
};

thread_local std::vector<OpenSpan> open_spans;

// Small sequential id per thread, assigned on the thread's first span. The
// main thread of a typical run gets 1, workers 2..N; ids are never reused
// within a process.
std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Span ids come from one process-wide sequence starting at 1, so 0 stays
// the "no parent" sentinel.
std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

void render_tree(const std::vector<PhaseSummary>& nodes, std::size_t depth,
                 std::string& out) {
  for (const PhaseSummary& n : nodes) {
    char buf[160];
    std::string label(2 * depth, ' ');
    label += n.name;
    if (n.count > 1) {
      std::snprintf(buf, sizeof(buf), " x%" PRIu64, n.count);
      label += buf;
    }
    if (label.size() < 32) label.resize(32, ' ');
    if (n.children.empty()) {
      std::snprintf(buf, sizeof(buf), "%s %10.3f ms\n", label.c_str(),
                    n.total_ms);
    } else {
      std::snprintf(buf, sizeof(buf), "%s %10.3f ms  (self %.3f ms)\n",
                    label.c_str(), n.total_ms, n.self_ms);
    }
    out += buf;
    render_tree(n.children, depth + 1, out);
  }
}

void render_events(const PhaseNode& node, bool& first, std::string& out) {
  char buf[288];
  out += first ? "\n" : ",\n";
  first = false;
  out += "  {\"name\": \"";
  for (const char c : node.name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  std::snprintf(buf, sizeof(buf),
                "\", \"ph\": \"X\", \"ts\": %" PRIu64 ", \"dur\": %" PRIu64
                ", \"pid\": 1, \"tid\": %" PRIu32
                ", \"args\": {\"span_id\": %" PRIu64
                ", \"parent_span_id\": %" PRIu64
                ", \"rss_open_bytes\": %" PRIu64
                ", \"rss_close_bytes\": %" PRIu64
                ", \"alloc_bytes\": %" PRIu64 "}}",
                node.start_us, node.dur_us, node.tid, node.span_id,
                node.parent_span_id, node.rss_open_bytes,
                node.rss_close_bytes, node.alloc_bytes);
  out += buf;
  for (const PhaseNode& child : node.children) {
    render_events(child, first, out);
  }
}

}  // namespace

double PhaseNode::self_ms() const {
  std::uint64_t child_us = 0;
  for (const PhaseNode& c : children) child_us += c.dur_us;
  return static_cast<double>(dur_us > child_us ? dur_us - child_us : 0) /
         1000.0;
}

PhaseTrace& PhaseTrace::instance() {
  static PhaseTrace trace;
  return trace;
}

void PhaseTrace::add_root(PhaseNode node) {
  std::lock_guard lock(mutex_);
  roots_.push_back(std::move(node));
}

std::vector<PhaseNode> PhaseTrace::roots() const {
  std::lock_guard lock(mutex_);
  return roots_;
}

void PhaseTrace::clear() {
  std::lock_guard lock(mutex_);
  roots_.clear();
}

namespace {

std::uint64_t node_footprint(const PhaseNode& node) {
  std::uint64_t bytes = sizeof(PhaseNode) + node.name.size();
  for (const PhaseNode& c : node.children) bytes += node_footprint(c);
  return bytes;
}

}  // namespace

std::uint64_t PhaseTrace::footprint_bytes() const {
  std::lock_guard lock(mutex_);
  std::uint64_t bytes = 0;
  for (const PhaseNode& n : roots_) bytes += node_footprint(n);
  return bytes;
}

double PhaseTrace::elapsed_ms() {
  return static_cast<double>(now_us()) / 1000.0;
}

std::vector<PhaseSummary> summarize_phases(
    const std::vector<PhaseNode>& nodes) {
  std::vector<PhaseSummary> out;
  // Merge same-name siblings in first-seen order; hot loops open hundreds of
  // identically named spans and the human view wants one aggregated line.
  std::vector<std::vector<PhaseNode>> grouped_children;
  for (const PhaseNode& n : nodes) {
    std::size_t slot = out.size();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].name == n.name) {
        slot = i;
        break;
      }
    }
    if (slot == out.size()) {
      out.push_back({n.name, 0, 0.0, 0.0, 0, 0, 0, {}});
      grouped_children.emplace_back();
    }
    out[slot].count += 1;
    out[slot].total_ms += n.total_ms();
    out[slot].self_ms += n.self_ms();
    out[slot].rss_delta_bytes += n.rss_delta_bytes();
    out[slot].alloc_bytes += n.alloc_bytes;
    out[slot].alloc_count += n.alloc_count;
    for (const PhaseNode& c : n.children) {
      grouped_children[slot].push_back(c);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].children = summarize_phases(grouped_children[i]);
  }
  return out;
}

std::vector<PhaseSummary> PhaseTrace::summarize() const {
  return summarize_phases(roots());
}

std::string PhaseTrace::tree_string() const {
  std::string out;
  render_tree(summarize(), 0, out);
  return out;
}

std::string PhaseTrace::chrome_trace_json() const {
  const std::vector<PhaseNode> nodes = roots();
  std::string out = "[";
  bool first = true;
  for (const PhaseNode& n : nodes) render_events(n, first, out);
  out += first ? "]" : "\n]";
  out += "\n";
  return out;
}

PhaseSpan::PhaseSpan(std::string name) {
  OpenSpan span;
  span.node.name = std::move(name);
  span.node.tid = this_thread_tid();
  span.node.span_id = next_span_id();
  span.node.parent_span_id =
      open_spans.empty() ? 0 : open_spans.back().node.span_id;
  span.node.rss_open_bytes = sampled_rss_bytes();
  span.node.start_us = now_us();
  open_spans.push_back(std::move(span));
}

PhaseSpan::~PhaseSpan() {
  if (open_spans.empty()) return;  // defensive; cannot happen with RAII use
  PhaseNode node = std::move(open_spans.back().node);
  open_spans.pop_back();
  node.dur_us = now_us() - node.start_us;
  node.rss_close_bytes = sampled_rss_bytes();
  if (open_spans.empty()) {
    PhaseTrace::instance().add_root(std::move(node));
  } else {
    open_spans.back().node.children.push_back(std::move(node));
  }
}

namespace detail {

bool charge_open_phase(std::uint64_t bytes, std::uint64_t count) {
  if (open_spans.empty()) return false;
  PhaseNode& node = open_spans.back().node;
  node.alloc_bytes += bytes;
  node.alloc_count += count;
  return true;
}

}  // namespace detail

}  // namespace fbt::obs
