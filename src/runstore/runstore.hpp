// Append-only run database: run id -> metrics JSON, under one
// directory.
//
// Layout (all files written by this class):
//
//   <dir>/index.jsonl           header line + one record per stored run
//   <dir>/objects/<id>.json     the run's full metrics export
//   <dir>/objects/<id>.series.jsonl  optional windowed snapshot series
//   <dir>/objects/<id>.decisions.jsonl  optional decision-provenance log
//   <dir>/objects/<id>.spans.jsonl  optional task-lifecycle span log
//
// Run ids are content hashes (FNV-1a 64 over the metrics JSON), so a
// byte-identical re-run stores under the same id and storing is
// idempotent — replay determinism is checkable by comparing ids alone.
// Writes are crash-safe in order: the object file is written to a temp
// name, flushed with fsync, renamed into place, and only then is the
// index line appended (again fsync'd). A crash mid-append leaves at
// worst a truncated final index line, which load() reports and skips —
// every earlier run stays readable.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tracon::obs {
class MetricsRegistry;
}

namespace tracon::runstore {

inline constexpr std::string_view kRunIndexSchema = "tracon.run_index";

/// Writes one stored object's document to the stream it is given; an
/// empty writer stores no object.
using ObjectWriter = std::function<void(std::ostream&)>;

/// One stored run, as described by its index record.
struct RunRecord {
  std::string id;         ///< content hash of the metrics JSON
  std::string scheduler;  ///< scheduler name at run time
  std::string source;     ///< arrival provenance ("poisson", "trace", ...)
  std::string metrics_rel;  ///< object path relative to the store dir
  std::string series_rel;   ///< snapshot-series path; empty when none
  std::string decisions_rel;  ///< decision-log path; empty when none
  std::string spans_rel;      ///< span-log path; empty when none
  std::map<std::string, std::string> fingerprint;  ///< config fingerprint

  bool has_series() const { return !series_rel.empty(); }
  bool has_decisions() const { return !decisions_rel.empty(); }
  bool has_spans() const { return !spans_rel.empty(); }
};

class RunStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`.
  explicit RunStore(std::filesystem::path dir);

  /// Stores one run: serializes the registry with write_json, hashes
  /// the bytes into the run id, persists the object and appends the
  /// index record (both fsync'd). Returns the id. Idempotent: content
  /// already stored returns the existing id without a second record
  /// (the first store's series, if any, wins). A non-empty
  /// `series_jsonl` (a SnapshotSeries document) is stored alongside
  /// the metrics under objects/<id>.series.jsonl; what `decisions`
  /// writes (a DecisionLog document) under objects/<id>.decisions.jsonl
  /// and what `spans` writes (a SpanLog document) under
  /// objects/<id>.spans.jsonl, each straight into its object's
  /// temporary file.
  std::string add_run(const obs::MetricsRegistry& metrics,
                      const std::string& scheduler,
                      const std::string& source,
                      const std::string& series_jsonl = "",
                      const ObjectWriter& decisions = {},
                      const ObjectWriter& spans = {});

  /// Same, from a pre-serialized metrics JSON document.
  std::string add_run_json(const std::string& metrics_json,
                           const std::string& scheduler,
                           const std::string& source,
                           const std::map<std::string, std::string>&
                               fingerprint,
                           const std::string& series_jsonl = "",
                           const ObjectWriter& decisions = {},
                           const ObjectWriter& spans = {});

  struct LoadResult {
    std::vector<RunRecord> runs;  ///< index order, deduplicated by id
    std::size_t skipped_lines = 0;  ///< corrupt / truncated records
    std::vector<std::string> warnings;  ///< one message per skip
  };

  /// Reads the index, skipping (and reporting) corrupt records such as
  /// a crash-truncated tail line. Missing index = empty store.
  LoadResult load() const;

  /// Resolves a run by full id or unique prefix; nullopt when absent.
  /// Throws std::invalid_argument when the prefix is ambiguous.
  std::optional<RunRecord> find(const std::string& id_prefix) const;

  /// The stored metrics JSON document for `record`.
  std::string read_metrics(const RunRecord& record) const;

  /// The stored snapshot-series document for `record`; throws
  /// std::invalid_argument when the run stored none.
  std::string read_series(const RunRecord& record) const;

  /// The stored decision-log document for `record`; throws
  /// std::invalid_argument when the run stored none.
  std::string read_decisions(const RunRecord& record) const;

  /// The stored span-log document for `record`; throws
  /// std::invalid_argument when the run stored none.
  std::string read_spans(const RunRecord& record) const;

  const std::filesystem::path& dir() const { return dir_; }

  /// FNV-1a 64-bit hex digest — the run-id function.
  static std::string content_id(std::string_view content);

 private:
  /// The object at `rel` (relative to the store dir) for `record`;
  /// throws std::runtime_error naming `what` when it cannot be opened.
  std::string read_object(const RunRecord& record, const std::string& rel,
                          const char* what) const;

  std::filesystem::path dir_;
};

}  // namespace tracon::runstore
