// Task-lifecycle spans: SpanLog records *where* every second of a
// task's end-to-end latency went — queue wait, running epochs (one per
// co-runner change, stamping the interference factor in force),
// migration freeze/copy windows — as contiguous spans that tile
// [enqueue, complete] exactly. Spans join the decision log by task id,
// so "why was this placed here" (DecisionLog) and "what did that
// placement cost" (SpanLog) are two views of the same task.
//
// The stream is schema-versioned `tracon.spans` JSONL: one header line
// carrying the fingerprint block, then one record per span in
// virtual-time order. Five record kinds share the stream:
//   {"kind": "queued", ...}           the task sat in the manager's
//       bounded queue from t0 (arrival) to t1 (placement);
//   {"kind": "running", ...}          one co-runner epoch: the task ran
//       on `machine` next to `neighbour` at interference speed `factor`
//       (progress per wall second, <= ~1) for [t0, t1);
//   {"kind": "migration_copy", ...}   a running epoch overlapped by a
//       live-migration copy window — progress drops to
//       factor * copy_factor while both hosts carry the copy I/O;
//   {"kind": "migration_freeze", ...} the stop-and-copy pause: the task
//       makes no progress at all;
//   {"kind": "completed", ...}        zero-length marker at completion,
//       carrying the solo runtime for slowdown reference.
//
// The latency decomposition (obs::breakdown) is fixed per kind so the
// components tile each span's duration d = t1 - t0 exactly:
//   queued:           wait         += d
//   running:          solo         += d * factor
//                     interference += d * (1 - factor)
//   migration_copy:   solo         += d * factor * copy_factor
//                     interference += d * (1 - factor)
//                     migration    += d * factor * (1 - copy_factor)
//   migration_freeze: migration    += d
// Summing over a task's spans, wait + solo + interference + migration
// equals complete - enqueue up to floating-point rounding
// (obs::breakdown enforces 1e-9 per completed task).
//
// Storage: every span is one flat SpanLog::Record of 56 bytes (the
// 88-byte SpanEvent stays the type spans are recorded and parsed as):
// narrow ids, and one double carrying the factor or the solo runtime.
//
// Determinism contract (DESIGN.md §6i): timestamps come from the
// virtual clock only, doubles go through the shortest round-trip
// writer, and the sharded runner moves each shard's log into the
// caller's as a part carrying its machine and task id offsets, after
// stable-sorting it on span start on the shard's own worker (spans are
// recorded as they close). write() merges the parts on (start, shard),
// re-indexing ids as it formats: the order a concatenation
// stable-sorted on start gives. It cuts that order into stamp windows
// and formats them on the run's worker pool (obs::write_merged),
// writing them in window order; a span's text depends on that span
// alone, so `--threads N` writes byte-identical logs to `--threads 1`.
// A log without parts (a 1-shard run) writes its spans in record order.
// Recording is gated on enabled(): when off, every record call returns
// immediately and no simulation output changes by a byte.
//
// Streaming (DESIGN.md §7): a log given its file by stream_to() writes
// its header at once, and each flush() writes what it holds, as write()
// would, and drops it. At every epoch barrier the sharded runner takes
// in the spans of each shard that start before the watermark, the
// earliest start any shard can still record, so the spans of later
// flushes all sort after them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tracon::obs {

class JsonlBuffer;

inline constexpr std::string_view kSpanLogSchema = "tracon.spans";

/// One contiguous segment of a task's lifecycle. Zero-length segments
/// (t1 == t0) are suppressed at record time except the `completed`
/// marker, which is zero-length by definition (t0 == t1 == completion).
struct SpanEvent {
  enum class Kind : std::uint8_t {
    kQueued,
    kRunning,
    kMigrationFreeze,
    kMigrationCopy,
    kCompleted,
  };

  /// Sentinel for "no machine" (queued spans).
  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

  Kind kind = Kind::kQueued;
  std::uint64_t task = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::size_t app = 0;
  std::size_t machine = kNoMachine;  ///< all kinds except queued
  /// Co-runner app class during a running/copy epoch; nullopt when the
  /// task had the machine to itself.
  std::optional<std::size_t> neighbour;
  /// Interference speed in force (progress per wall second next to
  /// `neighbour`; usually <= 1, slightly above when a pairing outpaces
  /// solo and the interference penalty becomes a credit). Running and
  /// migration_copy spans only.
  double factor = 1.0;
  /// Extra slowdown from the live-migration copy window (1 -
  /// copy_interference). migration_copy spans only.
  double copy_factor = 1.0;
  /// Solo reference runtime, stamped on the completed marker.
  double solo_runtime_s = 0.0;
};

/// Append-only recorder owned by obs::Telemetry. All record calls are
/// no-ops until set_enabled(true); the simulator probes it through the
/// nullable Telemetry* it already carries, so the log is zero-cost
/// when off.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Appends one span. Zero-length segments are dropped (they carry no
  /// time) unless they are the `completed` marker; t1 < t0 is a
  /// contract violation.
  void record(const SpanEvent& event);

  /// Appends a pre-built span verbatim, e.g. a parsed document's.
  /// Ignores the enabled gate and keeps zero-length spans as given.
  void append(const SpanEvent& event);

  /// Stable-sorts the recorded spans on their start, which is the
  /// order a merge part must have.
  void sort_by_start();

  /// Moves the spans `shard` holds that start before `before` in as
  /// the next part of the merge that write() and flush() run: on
  /// (start, part) order, with the part's machine ids shifted by
  /// `machine_base` and its task ids by `task_base`. Parts go in shard
  /// order, each sorted by start (checked in paranoid builds), before
  /// this log records anything itself; what it records afterwards is
  /// written after the merged parts. `shard` keeps the spans from
  /// `before` on, so cut there it must be sorted by start. While this
  /// log streams, the next flush() hands the part's buffer, holding
  /// those spans again, back to `shard`, which must live until then and
  /// record nothing before it.
  void append_part(
      SpanLog& shard, std::size_t machine_base, std::uint64_t task_base,
      double before = std::numeric_limits<double>::infinity());

  /// Spans held: not yet flushed.
  std::size_t size() const;

  /// Reproducibility stamp emitted in the header line. Deliberately
  /// excludes the thread count so logs stay byte-comparable across
  /// `--threads` values.
  void set_fingerprint(const std::string& key, const std::string& value);

  /// Header line, then the merged parts, then this log's own spans in
  /// record order, formatted on up to `threads` workers
  /// (obs::write_merged); the bytes do not depend on `threads`.
  void write(std::ostream& os, std::size_t threads = 1) const;
  std::string str() const;

  /// Makes `os` (not owned) the log's file and writes the header line
  /// to it: set the fingerprint first.
  void stream_to(std::ostream& os);
  bool streaming() const { return stream_ != nullptr; }
  /// Writes what the log holds to its stream_to() file, as write()
  /// does after the header, and drops it: one epoch of write(). Every
  /// span of a later flush must sort after these.
  void flush(std::size_t threads);

 private:
  /// One span, as written. Fields narrower than SpanEvent's are
  /// range-checked on the way in; kNone marks no machine or an empty
  /// co-runner.
  struct Record {
    static constexpr std::uint32_t kNone = 0xffffffffU;

    double t0_s = 0.0;
    double t1_s = 0.0;
    std::uint64_t task = 0;
    /// `factor` on running and migration_copy spans, `solo_runtime_s`
    /// on the completed marker.
    double value = 0.0;
    double copy_factor = 1.0;
    std::uint32_t app = 0;
    std::uint32_t machine = kNone;
    std::uint32_t neighbour = kNone;
    SpanEvent::Kind kind = SpanEvent::Kind::kQueued;
  };

  struct Part {
    std::vector<Record> records;
    std::size_t machine_base = 0;
    std::uint64_t task_base = 0;
    /// The shard log a streaming log took the records from, which
    /// flush() gives the buffer back to.
    SpanLog* lender = nullptr;
  };

  static Record flatten(const SpanEvent& event);
  /// The merged parts, then the own spans, in write() order.
  void write_records(std::ostream& os, std::size_t threads) const;
  /// Formats one span, its machine and task ids shifted into the
  /// merged id space.
  static void write_record(JsonlBuffer& out, const Record& r,
                           std::size_t machine_base, std::uint64_t task_base);

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<Part> parts_;
  std::ostream* stream_ = nullptr;
  std::map<std::string, std::string> fingerprint_;
};

/// Parsed span-log document, as read back by obs::breakdown, `tracon
/// explain` and telemetry_check. Each span parse_span_log returns keeps
/// the schema's per-record rules; the rules across a task's spans (the
/// chain tiles [enqueue, complete] and its components sum to the
/// latency) are obs::breakdown's to enforce.
struct SpanDoc {
  int version = 0;
  std::map<std::string, std::string> fingerprint;
  std::vector<SpanEvent> events;
};

/// Parses a document as written by SpanLog::write, and enforces each
/// span's rules: t1 >= t0, a positive speed factor on running and
/// migration_copy spans, and a copy_factor in (0, 1] on migration_copy
/// spans. Throws std::invalid_argument, naming the line, on a foreign
/// schema or a record that breaks a rule.
SpanDoc parse_span_log(std::string_view text);

}  // namespace tracon::obs
