#include "obs/span_log.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "util/error.hpp"

namespace tracon::obs {

namespace {

const char* kind_name(SpanEvent::Kind kind) {
  switch (kind) {
    case SpanEvent::Kind::kQueued:
      return "queued";
    case SpanEvent::Kind::kRunning:
      return "running";
    case SpanEvent::Kind::kMigrationFreeze:
      return "migration_freeze";
    case SpanEvent::Kind::kMigrationCopy:
      return "migration_copy";
    case SpanEvent::Kind::kCompleted:
      return "completed";
  }
  return "unknown";
}

/// Reads one span and checks its speeds: a running or migration_copy
/// span progresses (factor > 0; above 1 is legitimate, a pairing can
/// slightly outpace solo), and a copy window slows it by a fraction
/// (copy_factor in (0, 1], up to rounding).
SpanEvent parse_event(const JsonValue& obj) {
  SpanEvent e;
  const std::string& kind = text_field(obj, "kind", "record");
  e.task = count_field(obj, "task", "record");
  e.app = index_field(obj, "app", "record");
  if (kind == "completed") {
    e.kind = SpanEvent::Kind::kCompleted;
    e.t0_s = double_field(obj, "t", "completed");
    e.t1_s = e.t0_s;
  } else {
    e.t0_s = double_field(obj, "t0", "record");
    e.t1_s = double_field(obj, "t1", "record");
    if (e.t1_s < e.t0_s) {
      throw std::invalid_argument("record runs backwards (t1 < t0)");
    }
  }
  if (kind == "queued") {
    e.kind = SpanEvent::Kind::kQueued;
    return e;
  }
  e.machine = index_field(obj, "machine", "record");
  if (kind == "running" || kind == "migration_copy") {
    e.kind = kind == "running" ? SpanEvent::Kind::kRunning
                               : SpanEvent::Kind::kMigrationCopy;
    e.neighbour = corunner_field(obj, "neighbour", kind);
    e.factor = double_field(obj, "factor", kind);
    if (!(e.factor > 0.0)) {
      throw std::invalid_argument(kind + " \"factor\" is not positive");
    }
    if (e.kind == SpanEvent::Kind::kMigrationCopy) {
      e.copy_factor = double_field(obj, "copy_factor", kind);
      if (!(e.copy_factor > 0.0 && e.copy_factor <= 1.0 + 1e-9)) {
        throw std::invalid_argument(
            "migration_copy \"copy_factor\" is not in (0, 1]");
      }
    }
  } else if (kind == "migration_freeze") {
    e.kind = SpanEvent::Kind::kMigrationFreeze;
  } else if (kind == "completed") {
    e.solo_runtime_s = double_field(obj, "solo_runtime_s", "completed");
  } else {
    throw std::invalid_argument("record has unknown kind \"" + kind + "\"");
  }
  return e;
}

}  // namespace

SpanLog::Record SpanLog::flatten(const SpanEvent& e) {
  auto id = [](std::size_t value, const char* what) {
    TRACON_REQUIRE(value < Record::kNone, what);
    return static_cast<std::uint32_t>(value);
  };
  Record r;
  r.kind = e.kind;
  r.t0_s = e.t0_s;
  r.t1_s = e.t1_s;
  r.task = e.task;
  r.value = e.kind == SpanEvent::Kind::kCompleted ? e.solo_runtime_s
                                                  : e.factor;
  r.copy_factor = e.copy_factor;
  r.app = id(e.app, "a span log app class must fit in 32 bits");
  if (e.machine != SpanEvent::kNoMachine)
    r.machine = id(e.machine, "a span log machine id must fit in 32 bits");
  if (e.neighbour.has_value())
    r.neighbour =
        id(*e.neighbour, "a span log co-runner class must fit in 32 bits");
  return r;
}

void SpanLog::record(const SpanEvent& event) {
  if (!enabled_) return;
  TRACON_REQUIRE(event.t1_s >= event.t0_s, "span must not run backwards");
  if (event.kind != SpanEvent::Kind::kCompleted && event.t1_s <= event.t0_s) {
    return;  // zero-length segment carries no time
  }
  records_.push_back(flatten(event));
}

void SpanLog::append(const SpanEvent& event) {
  records_.push_back(flatten(event));
}

void SpanLog::sort_by_start() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const Record& a, const Record& b) {
                     return a.t0_s < b.t0_s;
                   });
}

void SpanLog::append_part(SpanLog& shard, std::size_t machine_base,
                          std::uint64_t task_base, double before) {
  TRACON_REQUIRE(records_.empty(),
                 "a span log takes its merge parts before recording");
  TRACON_REQUIRE(shard.parts_.empty(),
                 "a merge part must hold its own spans only");
  std::vector<Record>& taken = shard.records_;
  // Cut at `before`, the part must be sorted by start; taken whole, the
  // write's paranoid check names a part out of order.
  TRACON_DCHECK(std::isinf(before) ||
                    std::is_sorted(taken.begin(), taken.end(),
                                   [](const Record& a, const Record& b) {
                                     return a.t0_s < b.t0_s;
                                   }),
                "a span log part cut at a watermark must be sorted by start");
  const auto cut = std::partition_point(
      taken.begin(), taken.end(),
      [&](const Record& r) { return r.t0_s < before; });
  std::vector<Record> kept(cut, taken.end());
  taken.erase(cut, taken.end());
  parts_.push_back({std::move(taken), machine_base, task_base,
                    streaming() ? &shard : nullptr});
  taken = std::move(kept);
}

std::size_t SpanLog::size() const {
  std::size_t n = records_.size();
  for (const Part& p : parts_) n += p.records.size();
  return n;
}

void SpanLog::set_fingerprint(const std::string& key,
                              const std::string& value) {
  fingerprint_[key] = value;
}

void SpanLog::write_record(JsonlBuffer& out, const Record& r,
                           std::size_t machine_base,
                           std::uint64_t task_base) {
  out.raw("{\"kind\": \"")
      .raw(kind_name(r.kind))
      .raw("\", \"task\": ")
      .integer(r.task + task_base);
  if (r.kind == SpanEvent::Kind::kCompleted) {
    out.raw(", \"t\": ").number(r.t0_s);
  } else {
    out.raw(", \"t0\": ").number(r.t0_s).raw(", \"t1\": ").number(r.t1_s);
  }
  out.raw(", \"app\": ").integer(r.app);
  if (r.kind != SpanEvent::Kind::kQueued) {
    out.raw(", \"machine\": ")
        .integer(r.machine == Record::kNone ? SpanEvent::kNoMachine
                                            : r.machine + machine_base);
  }
  if (r.kind == SpanEvent::Kind::kRunning ||
      r.kind == SpanEvent::Kind::kMigrationCopy) {
    // An empty machine is spelled as the string "empty" so a span's
    // co-runner column is never confused with app class 0 (mirrors the
    // decision log's convention).
    out.raw(", \"neighbour\": ");
    if (r.neighbour == Record::kNone) {
      out.raw("\"empty\"");
    } else {
      out.integer(r.neighbour);
    }
    out.raw(", \"factor\": ").number(r.value);
  }
  if (r.kind == SpanEvent::Kind::kMigrationCopy) {
    out.raw(", \"copy_factor\": ").number(r.copy_factor);
  }
  if (r.kind == SpanEvent::Kind::kCompleted) {
    out.raw(", \"solo_runtime_s\": ").number(r.value);
  }
  out.raw("}").end_line();
}

void SpanLog::write(std::ostream& os, std::size_t threads) const {
  JsonlBuffer header(os);
  header.log_header(kSpanLogSchema, fingerprint_).end_line();
  header.flush();
  write_records(os, threads);
}

void SpanLog::stream_to(std::ostream& os) {
  TRACON_REQUIRE(stream_ == nullptr, "a span log streams to one file");
  stream_ = &os;
  JsonlBuffer header(os);
  header.log_header(kSpanLogSchema, fingerprint_).end_line();
  header.flush();
}

void SpanLog::flush(std::size_t threads) {
  TRACON_REQUIRE(stream_ != nullptr,
                 "a span log flushes to the file stream_to() named");
  write_records(*stream_, threads);
  records_.clear();
  for (Part& part : parts_) {
    if (part.lender == nullptr) continue;
    // The lender holds only the spans append_part left it.
    std::vector<Record>& kept = part.lender->records_;
    part.records.assign(kept.begin(), kept.end());
    kept.swap(part.records);
  }
  parts_.clear();
}

void SpanLog::write_records(std::ostream& os, std::size_t threads) const {
  std::vector<std::size_t> sizes;
  for (const Part& p : parts_) sizes.push_back(p.records.size());
  write_merged(
      os, threads, sizes, records_.size(),
      [&](std::size_t p, std::size_t i) { return parts_[p].records[i].t0_s; },
      [&](JsonlBuffer& out, std::size_t p, std::size_t i) {
        if (p == parts_.size()) {
          write_record(out, records_[i], 0, 0);
          return;
        }
        const Part& part = parts_[p];
        write_record(out, part.records[i], part.machine_base,
                     part.task_base);
      });
}

std::string SpanLog::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

SpanDoc parse_span_log(std::string_view text) {
  SpanDoc doc;
  doc.version = read_jsonl(
      text, kSpanLogSchema, "span log",
      [&](const JsonValue& header) {
        doc.fingerprint = string_map_field(header, "fingerprint", "header");
      },
      [&](const JsonValue& record) {
        doc.events.push_back(parse_event(record));
      });
  return doc;
}

}  // namespace tracon::obs
