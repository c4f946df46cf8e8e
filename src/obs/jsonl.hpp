// Deterministic JSONL writing, the shared schema-version header used by
// every JSONL file format in the tree (arrival traces, task-event logs,
// the runstore index, the series, decision and span logs), and the one
// loop and field readers every reader of them uses.
//
// A JSONL file opens with one header object
//   {"schema": "<format name>", "version": N, ...format fields}
// followed by one record object per line. read_jsonl() walks such a
// document: it checks the header with require_schema() to reject
// foreign or future files early, and names the line in every error.
//
// Every JSONL writer, and the tracer's Chrome trace and CSV, formats
// through JsonlBuffer, fields in the order it appends them. JSONL
// doubles go out as their shortest round-trip representation
// (std::to_chars), so same-input runs write byte-identical lines and
// parsing a written value recovers it bit-exactly; the Chrome trace,
// the trace JSONL, the task-event CSV and format_double use the general
// format at a fixed precision instead, as printf("%.*g") prints.
//
// The merged logs (the decision and span logs and the tracer's four
// exports) write their records through write_merged: stamp windows of
// the merge parts (util/stamp_merge.hpp) and index chunks of the
// part-less records, each formatted on the worker pool into a buffer
// that worker owns, and written to the stream strictly in chunk order
// (util/parallel.hpp's parallel_ordered). A record's text depends on
// that record alone, so the bytes do not depend on the worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tracon::obs {

class JsonValue;

/// Version shared by the tracon JSONL formats; bumped in lockstep when
/// any record schema changes shape. History: 1 = initial formats;
/// 2 = decision log grew the "migration" record kind.
inline constexpr int kJsonlSchemaVersion = 2;

/// Escapes `raw` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view raw);

/// Formats `value` exactly as JsonlBuffer::number(value) does: shortest
/// round-trip std::to_chars.
std::string json_number(double value);

/// Formats `value` as the metrics exporters and the run report do:
/// general format at 10 significant digits, what printf("%.10g")
/// prints, so callers composing files by hand stay byte-compatible.
std::string format_double(double value);

/// Formats JSONL text into one reused buffer and hands it to a stream
/// in blocks of about kBlockBytes, or at flush(); a buffer without a
/// stream holds its text until take(). Writers append their records
/// field by field, with no temporary string per field or per line.
class JsonlBuffer {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  explicit JsonlBuffer(std::ostream& os);
  /// A buffer without a stream, formatting into `storage` (cleared;
  /// its capacity is reused).
  explicit JsonlBuffer(std::string storage);

  /// Appends pre-formatted text verbatim.
  JsonlBuffer& raw(std::string_view json) {
    text_.append(json);
    return *this;
  }
  /// A quoted, escaped JSON string.
  JsonlBuffer& string(std::string_view text);
  /// A one-line {"key": "value", ...} object, in map order.
  JsonlBuffer& string_map(const std::map<std::string, std::string>& map);
  /// Shortest round-trip double.
  JsonlBuffer& number(double value);
  /// General format at `digits` significant digits, as
  /// printf("%.*g", digits, value).
  JsonlBuffer& number(double value, int digits);
  JsonlBuffer& integer(std::uint64_t value);
  /// A log's header line: {"schema": `schema`, "version":
  /// kJsonlSchemaVersion, "fingerprint": {...}}. The decision and span
  /// logs open with it.
  JsonlBuffer& log_header(
      std::string_view schema,
      const std::map<std::string, std::string>& fingerprint);
  /// Ends a line; writes the buffer out once it holds a block, when it
  /// has a stream.
  void end_line() {
    text_ += '\n';
    if (os_ != nullptr && text_.size() >= kBlockBytes) flush();
  }
  /// Writes out whatever is buffered; needs a stream.
  void flush();
  /// Hands over the text formatted so far, leaving the buffer empty.
  std::string take() {
    std::string text = std::move(text_);
    text_.clear();
    return text;
  }

 private:
  std::ostream* os_ = nullptr;
  std::string text_;
};

/// Records per chunk of write_merged: the stamp-window target, and the
/// part-less records' chunk length.
inline constexpr std::size_t kMergedChunkRecords = 1024;

/// Writes a merged log's records to `os`: the records of parts of
/// `sizes[p]` records each in (stamp, part, record) order, as
/// merge_by_stamp visits them, then `own` part-less records in index
/// order. `stamp(p, i)` is part p's record i's stamp, non-decreasing in
/// i (checked in paranoid builds); `format(out, p, i)` appends that
/// record's whole text to `out`, with p == sizes.size() naming
/// part-less record i. The records are formatted in chunks on up to
/// `threads` workers (at most one per hardware thread), at most two
/// chunks per worker formatted and not yet written, so format may only
/// read shared state, and its text must depend on the record alone.
/// The bytes written do not depend on `threads`; a log of one chunk
/// (about kMergedChunkRecords records) is formatted on the caller, with
/// no thread started.
void write_merged(
    std::ostream& os, std::size_t threads,
    const std::vector<std::size_t>& sizes, std::size_t own,
    const std::function<double(std::size_t, std::size_t)>& stamp,
    const std::function<void(JsonlBuffer&, std::size_t, std::size_t)>&
        format);

/// Validates a parsed JSONL header line: it must be an object whose
/// "schema" equals `schema` and whose integer "version" is at most
/// kJsonlSchemaVersion. Returns the version; throws
/// std::invalid_argument otherwise.
int require_schema(const JsonValue& header, std::string_view schema);

/// True when `x` is a count: a finite, integral, non-negative number
/// that std::uint64_t holds.
bool is_count(double x);

/// Reads member `key` of `obj` as a count: a finite, integral, non-negative
/// number that std::uint64_t holds. Every reader converts parsed numbers
/// to integers through this pair, never by a bare cast, which is
/// undefined behaviour out of range. Throws std::invalid_argument naming
/// `what` and `key` when the member is missing, not a number, or not
/// such an integer.
std::uint64_t count_field(const JsonValue& obj, std::string_view key,
                          std::string_view what);

/// count_field for a std::size_t (an index, or a size).
std::size_t index_field(const JsonValue& obj, std::string_view key,
                        std::string_view what);

// The other field readers. Each throws std::invalid_argument naming
// `what` and `key` when the member is missing or of the wrong type.

/// Member `key` of `obj` as a number.
double double_field(const JsonValue& obj, std::string_view key,
                    std::string_view what);

/// Member `key` of `obj` as a string.
const std::string& text_field(const JsonValue& obj, std::string_view key,
                              std::string_view what);

/// A co-runner column: the string "empty" (an empty machine, nullopt)
/// or an app class index, read as index_field reads it.
std::optional<std::size_t> corunner_field(const JsonValue& obj,
                                          std::string_view key,
                                          std::string_view what);

/// Member `key` of `obj` as an object of numbers, by name.
std::map<std::string, double> number_map_field(const JsonValue& obj,
                                               std::string_view key,
                                               std::string_view what);

/// Member `key` of `obj` as an object of strings, by name. An entry
/// that is not a string throws: no entry is skipped.
std::map<std::string, std::string> string_map_field(const JsonValue& obj,
                                                    std::string_view key,
                                                    std::string_view what);

/// Walks the JSONL document `text` in place, line by line (each line
/// ends at '\n'; empty lines are skipped). The first non-empty line is
/// the header: it goes through require_schema(`schema`), then to
/// `on_header`. Every later non-empty line goes to `on_record`. Returns
/// the header's version.
///
/// Every error — the JSON parser's, require_schema's, a field reader's
/// or a callback's std::invalid_argument — is rethrown as
/// std::invalid_argument "<doc> line N: <message>", N counting from 1.
/// A document without a header line throws "<doc> has no header line".
int read_jsonl(std::string_view text, std::string_view schema,
               std::string_view doc,
               const std::function<void(const JsonValue&)>& on_header,
               const std::function<void(const JsonValue&)>& on_record);

}  // namespace tracon::obs
