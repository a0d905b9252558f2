#include "obs/event_journal.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/run_report.hpp"  // json_escape

namespace fbt::obs {

namespace {

/// The innermost live JournalTap of this thread, or null.
thread_local JournalTap* tls_tap = nullptr;

void append_value(const EventValue& v, std::string& out) {
  char buf[48];
  switch (v.kind) {
    case EventValue::Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, v.u);
      out += buf;
      break;
    case EventValue::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, v.i);
      out += buf;
      break;
    case EventValue::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.6g", v.d);
      out += buf;
      break;
    case EventValue::Kind::kString:
      out += '"';
      out += json_escape(v.s);
      out += '"';
      break;
  }
}

}  // namespace

std::string render_event_line(const JournalEvent& event) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, event.seq);
  std::string out = "{\"seq\": ";
  out += buf;
  out += ", \"type\": \"" + json_escape(event.type) + "\"";
  for (const auto& [key, value] : event.fields) {
    out += ", \"" + json_escape(key) + "\": ";
    append_value(value, out);
  }
  out += "}";
  return out;
}

void EventJournal::emit(
    std::string_view type,
    std::initializer_list<std::pair<std::string_view, EventValue>> fields) {
  JournalEvent event;
  event.type = std::string(type);
  event.fields.reserve(fields.size());
  for (const auto& [key, value] : fields) {
    event.fields.emplace_back(std::string(key), value);
  }
  JournalTap* const tap = tls_tap;
  {
    std::lock_guard lock(mutex_);
    event.seq = next_seq_++;
    if (tap == nullptr) {
      events_.push_back(std::move(event));
      return;
    }
    events_.push_back(event);
  }
  tap->sink_(event);
}

std::vector<JournalEvent> EventJournal::events(std::size_t from) const {
  std::lock_guard lock(mutex_);
  if (from >= events_.size()) return {};
  return {events_.begin() + static_cast<std::ptrdiff_t>(from), events_.end()};
}

std::size_t EventJournal::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::string EventJournal::ndjson() const {
  const std::vector<JournalEvent> copy = events();
  std::string out;
  for (const JournalEvent& event : copy) {
    out += render_event_line(event);
    out += '\n';
  }
  return out;
}

bool EventJournal::write_ndjson(const std::string& path) const {
  const std::string body = ndjson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[obs] cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "[obs] short write to %s\n", path.c_str());
  return ok;
}

void EventJournal::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  next_seq_ = 0;
}

std::uint64_t EventJournal::footprint_bytes() const {
  std::lock_guard lock(mutex_);
  std::uint64_t bytes = 0;
  for (const JournalEvent& e : events_) {
    bytes += sizeof(JournalEvent) + e.type.size();
    for (const auto& [name, value] : e.fields) {
      bytes += sizeof(name) + sizeof(value) + name.size() + value.s.size();
    }
  }
  return bytes;
}

EventJournal& journal() {
  static EventJournal instance;
  return instance;
}

JournalTap::JournalTap(std::function<void(const JournalEvent&)> sink)
    : sink_(std::move(sink)), outer_(tls_tap) {
  tls_tap = this;
}

JournalTap::~JournalTap() { tls_tap = outer_; }

}  // namespace fbt::obs
