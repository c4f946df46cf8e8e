#include "runstore/runstore.hpp"

#include <cstdint>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>
#include <utility>

#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace tracon::runstore {

namespace fs = std::filesystem;

namespace {

/// Writes what `write` writes to `path` durably: temp file in the same
/// directory, flushed and fsync'd, then renamed into place.
void write_file_atomic(const fs::path& path, const ObjectWriter& write) {
  fs::path tmp = path;
  tmp += ".tmp";
  std::ofstream f(tmp, std::ios::binary);
  if (!f) {
    throw std::runtime_error("runstore: cannot open '" + tmp.string() + "'");
  }
  write(f);
  if (f) f.close();
  const int fd = f ? ::open(tmp.c_str(), O_WRONLY) : -1;
  bool ok = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ok = ::close(fd) == 0 && ok;
  if (!ok) {
    throw std::runtime_error("runstore: short write to '" + tmp.string() +
                             "'");
  }
  fs::rename(tmp, path);
}

void write_file_atomic(const fs::path& path, const std::string& content) {
  write_file_atomic(path, [&](std::ostream& os) {
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  });
}

/// Appends `lines` (each ending in a newline) to `path` and fsyncs
/// before returning, so a completed add_run survives power loss. If a
/// previous crash left the file without a trailing newline (a
/// half-written record), a newline is inserted first so the torn record
/// stays confined to its own line instead of swallowing this append.
void append_lines_fsync(const fs::path& path, const std::string& lines) {
  bool repair_newline = false;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in && in.tellg() > 0) {
      in.seekg(-1, std::ios::end);
      char last = '\n';
      in.get(last);
      repair_newline = last != '\n';
    }
  }
  std::FILE* f = std::fopen(path.string().c_str(), "ab");
  if (f == nullptr) {
    throw std::runtime_error("runstore: cannot append to '" + path.string() +
                             "'");
  }
  const std::string text = (repair_newline ? "\n" : "") + lines;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
            std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    throw std::runtime_error("runstore: short append to '" + path.string() +
                             "'");
  }
}

}  // namespace

RunStore::RunStore(fs::path dir) : dir_(std::move(dir)) {
  TRACON_REQUIRE(!dir_.empty(), "runstore directory must be non-empty");
  fs::create_directories(dir_ / "objects");
}

std::string RunStore::content_id(std::string_view content) {
  // FNV-1a 64-bit: deterministic, dependency-free, sufficient for
  // distinguishing run exports (not a cryptographic digest).
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : content) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string RunStore::add_run(const obs::MetricsRegistry& metrics,
                              const std::string& scheduler,
                              const std::string& source,
                              const std::string& series_jsonl,
                              const ObjectWriter& decisions,
                              const ObjectWriter& spans) {
  std::ostringstream os;
  metrics.write_json(os);
  return add_run_json(os.str(), scheduler, source, metrics.fingerprint(),
                      series_jsonl, decisions, spans);
}

std::string RunStore::add_run_json(
    const std::string& metrics_json, const std::string& scheduler,
    const std::string& source,
    const std::map<std::string, std::string>& fingerprint,
    const std::string& series_jsonl, const ObjectWriter& decisions,
    const ObjectWriter& spans) {
  const std::string id = content_id(metrics_json);
  LoadResult existing = load();
  for (const RunRecord& r : existing.runs) {
    if (r.id == id) return id;  // idempotent: content already stored
  }

  const std::string metrics_rel = "objects/" + id + ".json";
  write_file_atomic(dir_ / metrics_rel, metrics_json);
  std::string series_rel;
  if (!series_jsonl.empty()) {
    series_rel = "objects/" + id + ".series.jsonl";
    write_file_atomic(dir_ / series_rel, series_jsonl);
  }
  std::string decisions_rel;
  if (decisions) {
    decisions_rel = "objects/" + id + ".decisions.jsonl";
    write_file_atomic(dir_ / decisions_rel, decisions);
  }
  std::string spans_rel;
  if (spans) {
    spans_rel = "objects/" + id + ".spans.jsonl";
    write_file_atomic(dir_ / spans_rel, spans);
  }

  const fs::path index = dir_ / "index.jsonl";
  std::ostringstream lines;
  obs::JsonlBuffer out(lines);
  std::error_code ec;
  if (!fs::exists(index, ec) || fs::file_size(index, ec) == 0) {
    out.raw("{\"schema\": ")
        .string(kRunIndexSchema)
        .raw(", \"version\": ")
        .integer(obs::kJsonlSchemaVersion)
        .raw("}")
        .end_line();
  }
  out.raw("{\"id\": ")
      .string(id)
      .raw(", \"scheduler\": ")
      .string(scheduler)
      .raw(", \"source\": ")
      .string(source)
      .raw(", \"metrics\": ")
      .string(metrics_rel);
  if (!series_rel.empty()) out.raw(", \"series\": ").string(series_rel);
  if (!decisions_rel.empty())
    out.raw(", \"decisions\": ").string(decisions_rel);
  if (!spans_rel.empty()) out.raw(", \"spans\": ").string(spans_rel);
  out.raw(", \"fingerprint\": ").string_map(fingerprint).raw("}").end_line();
  out.flush();
  append_lines_fsync(index, lines.str());
  return id;
}

RunStore::LoadResult RunStore::load() const {
  LoadResult result;
  std::ifstream in(dir_ / "index.jsonl", std::ios::binary);
  if (!in) return result;  // empty store

  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      obs::JsonValue obj = obs::parse_json(line);
      if (!have_header) {
        obs::require_schema(obj, kRunIndexSchema);
        have_header = true;
        continue;
      }
      RunRecord rec;
      rec.id = obs::text_field(obj, "id", "record");
      rec.scheduler = obs::text_field(obj, "scheduler", "record");
      rec.source = obs::text_field(obj, "source", "record");
      rec.metrics_rel = obs::text_field(obj, "metrics", "record");
      // The log objects and the fingerprint are optional; present, they
      // must have their type.
      for (auto [key, rel] : {std::pair{"series", &rec.series_rel},
                              std::pair{"decisions", &rec.decisions_rel},
                              std::pair{"spans", &rec.spans_rel}}) {
        if (obj.find(key) != nullptr) {
          *rel = obs::text_field(obj, key, "record");
        }
      }
      if (obj.find("fingerprint") != nullptr) {
        rec.fingerprint = obs::string_map_field(obj, "fingerprint", "record");
      }
      bool duplicate = false;
      for (const RunRecord& seen : result.runs) {
        if (seen.id == rec.id) duplicate = true;
      }
      if (!duplicate) result.runs.push_back(std::move(rec));
    } catch (const std::exception& e) {
      ++result.skipped_lines;
      result.warnings.push_back("index line " + std::to_string(line_no) +
                                " skipped (" + e.what() +
                                "); truncated tail record?");
    }
  }
  return result;
}

std::optional<RunRecord> RunStore::find(const std::string& id_prefix) const {
  TRACON_REQUIRE(!id_prefix.empty(), "run id prefix must be non-empty");
  LoadResult loaded = load();
  std::optional<RunRecord> match;
  for (const RunRecord& r : loaded.runs) {
    if (r.id.rfind(id_prefix, 0) != 0) continue;
    if (match.has_value()) {
      throw std::invalid_argument("run id prefix '" + id_prefix +
                                  "' is ambiguous (matches " + match->id +
                                  " and " + r.id + ")");
    }
    match = r;
  }
  return match;
}

std::string RunStore::read_object(const RunRecord& record,
                                  const std::string& rel,
                                  const char* what) const {
  std::ifstream in(dir_ / rel, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string("runstore: cannot open ") + what +
                             " object for run " + record.id);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string RunStore::read_metrics(const RunRecord& record) const {
  return read_object(record, record.metrics_rel, "metrics");
}

std::string RunStore::read_series(const RunRecord& record) const {
  TRACON_REQUIRE(record.has_series(),
                 "run stored no snapshot series (record with --snapshot-"
                 "interval)");
  return read_object(record, record.series_rel, "series");
}

std::string RunStore::read_decisions(const RunRecord& record) const {
  TRACON_REQUIRE(record.has_decisions(),
                 "run stored no decision log (record with --decisions)");
  return read_object(record, record.decisions_rel, "decisions");
}

std::string RunStore::read_spans(const RunRecord& record) const {
  TRACON_REQUIRE(record.has_spans(),
                 "run stored no span log (record with --spans)");
  return read_object(record, record.spans_rel, "spans");
}

}  // namespace tracon::runstore
