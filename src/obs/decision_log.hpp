// Decision provenance: DecisionLog records *why* every placement
// happened — the candidate slots the scheduler scanned, what each model
// family predicted for them, the confidence weights in force, and the
// margin by which the chosen slot won — then joins each decision to the
// task's eventual completion (realized runtime/IOPS) so prediction
// error is attributable per decision.
//
// The stream is schema-versioned `tracon.decision_log` JSONL: one
// header line carrying the fingerprint block, then one record per
// event in virtual-time order. Three record kinds share the stream:
//   {"kind": "decision", ...}  emitted when a scheduler commits a
//       placement (task, candidates, per-family predictions, weights,
//       chosen index, margin, both-objective predicted values), plus
//       the machine id once the simulator binds the slot;
//   {"kind": "migration", ...} emitted when the rebalancer re-places a
//       running task (source/destination hosts and co-runners, the
//       predicted stay/move remaining times, the migration cost
//       breakdown, and the margin by which moving won) — added in
//       schema version 2 so `tracon explain` covers moves;
//   {"kind": "outcome", ...}   emitted when the task completes
//       (realized runtime, mean IOPS, co-runner at placement, solo
//       runtime for slowdown attribution).
//
// Storage: every record is one flat, trivially-copyable
// DecisionLog::Record. A decision's confidence weights and its
// candidates' scores and per-family predictions live in one double
// arena, its candidates' co-runners in one integer arena, and its
// (scheduler, objective, families) triple is interned once per log, so
// recording allocates nothing per candidate.
//
// Determinism contract (DESIGN.md §6g): timestamps come from the
// virtual clock only, doubles go through the shortest round-trip
// writer, and the sharded runner moves each shard's log into the
// caller's as a part carrying its machine and task id offsets. write()
// merges the parts on (time, shard), re-indexing ids as it formats: the
// order a concatenation stable-sorted on time gives. It cuts that order
// into stamp windows and formats them on the run's worker pool
// (obs::write_merged), writing them in window order; a record's text
// depends on that record alone, so `--threads N` writes byte-identical
// logs to `--threads 1`. Recording is gated on enabled(): when off,
// every record call returns immediately and no simulation output
// changes by a byte.
//
// Streaming (DESIGN.md §7): a log given its file by stream_to() writes
// its header at once, and each flush() writes what it holds, as write()
// would, and drops it. The sharded runner flushes at every epoch
// barrier, after taking in each shard's records, all of which precede
// the barrier's instant, so the file holds write()'s bytes while the
// run holds about one epoch of records.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tracon::obs {

class JsonlBuffer;

inline constexpr std::string_view kDecisionLogSchema = "tracon.decision_log";

/// One candidate slot the scheduler scanned for a task. `neighbour`
/// is the app class already resident on the candidate machine, or
/// nullopt for an empty machine.
struct DecisionCandidate {
  std::optional<std::size_t> neighbour;
  /// Ensemble prediction under the scheduler's objective (runtime
  /// seconds or combined IOPS) if the task were placed here.
  double score = 0.0;
  /// The same prediction from each model family individually, in
  /// DecisionEvent::families order. Single-model schedulers carry one
  /// entry equal to `score`.
  std::vector<double> by_family;
};

/// One record in the decision log: a placement decision, a rebalancer
/// re-placement, or the completion outcome they are later joined to
/// (by task id).
struct DecisionEvent {
  enum class Kind : std::uint8_t { kDecision, kMigration, kOutcome };

  /// Sentinel for "machine not bound" on a decision record.
  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

  Kind kind = Kind::kDecision;
  std::uint64_t task = 0;
  double time_s = 0.0;
  std::size_t app = 0;
  std::size_t machine = kNoMachine;

  // -- decision fields --
  std::string scheduler;
  std::string objective;             ///< "runtime" or "iops"
  std::vector<std::string> families; ///< model family names
  std::vector<double> weights;       ///< confidence weight per family
  std::vector<DecisionCandidate> candidates;
  std::size_t chosen = 0;  ///< index into `candidates`
  /// How decisively the chosen slot won: distance from the runner-up's
  /// score, signed so that a negative margin records a policy override
  /// (e.g. the beneficial-join filter rejecting the raw argmin). Zero
  /// when only one candidate existed.
  double margin = 0.0;
  double predicted_runtime_s = 0.0;
  double predicted_iops = 0.0;

  // -- outcome fields --
  std::optional<std::size_t> neighbour;  ///< co-runner at placement; on a
                                         ///< migration record, the
                                         ///< destination co-runner
  double runtime_s = 0.0;
  double iops = 0.0;
  double solo_runtime_s = 0.0;  ///< reference runtime for slowdown

  // -- migration fields (kind == kMigration; `machine` carries the
  // destination host, `neighbour` the destination co-runner, `margin`
  // the predicted benefit predicted_stay_s - predicted_move_s) --
  std::size_t from_machine = kNoMachine;      ///< source host
  std::optional<std::size_t> from_neighbour;  ///< co-runner left behind
  double predicted_stay_s = 0.0;  ///< predicted remaining time in place
  double predicted_move_s = 0.0;  ///< predicted remaining time after the
                                  ///< move, migration cost included
  double downtime_s = 0.0;        ///< stop-and-copy pause
  double copy_s = 0.0;            ///< copy-window length on both hosts
  double cost_s = 0.0;            ///< total cost charged to the task
};

/// Append-only recorder owned by obs::Telemetry. All record calls are
/// no-ops until set_enabled(true); schedulers and the simulator probe
/// it through the nullable Telemetry* they already carry, so the log
/// is zero-cost when off.
class DecisionLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Appends a decision record (kind forced to kDecision) and holds it
  /// for the bind_machine() that follows its placement. Its weights
  /// and every candidate's by_family must have one entry per family.
  void record_decision(const DecisionEvent& event);

  /// Stamps the machine id onto `task`'s decision record once the
  /// simulator binds the placement to a concrete machine. No-op when
  /// the task has no unbound decision (e.g. FIFO placements).
  void bind_machine(std::uint64_t task, std::size_t machine);

  /// Appends a re-placement record (kind forced to kMigration). The
  /// rebalancer stamps source/destination hosts and the cost breakdown
  /// before handing the event over; a task may carry any number of
  /// migration records between its decision and its outcome.
  void record_migration(const DecisionEvent& event);

  /// Appends a completion record (kind forced to kOutcome). Recorded
  /// even for tasks without a decision; attribution joins by task id.
  void record_outcome(const DecisionEvent& event);

  /// Appends a pre-built event verbatim (its own kind, its machine as
  /// given), e.g. a parsed document's. Ignores the enabled gate.
  void append(const DecisionEvent& event);

  /// Moves the records `shard` holds in as the next part of the merge
  /// that write() and flush() run: on (time, part) order, with the
  /// part's machine ids shifted by `machine_base` and its task ids by
  /// `task_base`. Parts go in shard order, each ordered by time
  /// (checked in paranoid builds) and with every decision bound, before
  /// this log records anything itself; what it records afterwards is
  /// written after the merged parts. `shard` is left empty. While this
  /// log streams, the next flush() hands the part's emptied buffers
  /// back to `shard`, which must live until then and record nothing
  /// before it.
  void append_part(DecisionLog& shard, std::size_t machine_base,
                   std::uint64_t task_base);

  /// Records held: not yet flushed.
  std::size_t size() const;
  /// Every record held, in write() order, ids re-indexed.
  std::vector<DecisionEvent> events() const;

  /// Reproducibility stamp emitted in the header line. Deliberately
  /// excludes the thread count so logs stay byte-comparable across
  /// `--threads` values.
  void set_fingerprint(const std::string& key, const std::string& value);

  /// Header line, then the merged parts, then this log's own records
  /// in record order, formatted on up to `threads` workers
  /// (obs::write_merged); the bytes do not depend on `threads`.
  void write(std::ostream& os, std::size_t threads = 1) const;
  std::string str() const;

  /// Makes `os` (not owned) the log's file and writes the header line
  /// to it: set the fingerprint first.
  void stream_to(std::ostream& os);
  bool streaming() const { return stream_ != nullptr; }
  /// Writes what the log holds to its stream_to() file, as write()
  /// does after the header, and drops it: one epoch of write(). Every
  /// decision held must be bound, and every record of a later flush
  /// must sort after these.
  void flush(std::size_t threads);

 private:
  /// One record. Fields narrower than DecisionEvent's are range-checked
  /// on the way in; kNone marks an unset machine or an empty co-runner.
  struct Record {
    static constexpr std::uint32_t kNone = 0xffffffffU;

    double time_s = 0.0;
    std::uint64_t task = 0;
    /// The kind's DecisionEvent doubles, in output order: a decision's
    /// margin and predicted runtime and IOPS; a migration's predicted
    /// stay and move, downtime, copy, cost and margin; an outcome's
    /// runtime, IOPS and solo runtime.
    std::array<double, 6> value{};
    /// A decision's weights, then per candidate its score and
    /// by-family values, from here in Stream::values.
    std::uint64_t first_value = 0;
    /// A decision's candidate co-runners, from here in
    /// Stream::neighbours.
    std::uint64_t first_neighbour = 0;
    std::uint32_t app = 0;
    std::uint32_t machine = kNone;
    std::uint32_t from_machine = kNone;
    std::uint32_t neighbour = kNone;
    std::uint32_t from_neighbour = kNone;
    std::uint32_t candidates = 0;
    std::uint32_t chosen = 0;
    std::uint16_t key = 0;  ///< a decision's interned Stream::keys entry
    DecisionEvent::Kind kind = DecisionEvent::Kind::kDecision;
  };

  /// A decision's (scheduler, objective, families), with its JSON
  /// fields rendered once.
  struct Key {
    std::string scheduler;
    std::string objective;
    std::vector<std::string> families;
    std::string json;
  };

  /// One append-only record stream and the arenas its records point
  /// into.
  struct Stream {
    std::vector<Record> records;
    std::vector<double> values;
    std::vector<std::uint32_t> neighbours;
    std::vector<Key> keys;

    void add(const DecisionEvent& event, DecisionEvent::Kind kind);
    /// Drops every record, keeping the buffers.
    void clear();
    std::uint16_t intern(const DecisionEvent& event);
    DecisionEvent event(const Record& r, std::size_t machine_base,
                        std::uint64_t task_base) const;
    void write(JsonlBuffer& out, const Record& r, std::size_t machine_base,
               std::uint64_t task_base) const;
  };

  struct Part {
    Stream stream;
    std::size_t machine_base = 0;
    std::uint64_t task_base = 0;
    /// The shard log a streaming log took the stream from, which
    /// flush() gives the emptied buffers back to.
    DecisionLog* lender = nullptr;
  };

  /// The merged parts, then the own records, in write() order.
  void write_records(std::ostream& os, std::size_t threads) const;

  bool enabled_ = false;
  Stream own_;
  std::vector<Part> parts_;
  std::ostream* stream_ = nullptr;
  /// Decisions awaiting bind_machine, as (task, record index). The
  /// simulator binds every placement of the round that recorded it, so
  /// this holds at most one round's decisions.
  std::vector<std::pair<std::uint64_t, std::size_t>> unbound_;
  std::map<std::string, std::string> fingerprint_;
};

/// Parsed decision-log document, as read back by the attribution
/// engine, `tracon explain`, the report diff and telemetry_check. A
/// document parse_decision_log returns keeps every structural rule of
/// the schema.
struct DecisionDoc {
  int version = 0;
  std::map<std::string, std::string> fingerprint;
  std::vector<DecisionEvent> events;
};

/// Parses a document as written by DecisionLog::write, and enforces its
/// structure: record times never run backwards (from 0); a decision's
/// chosen index addresses one of its candidates, and its families
/// (at least one), weights and every candidate's by_family line up; a
/// migration moves between two distinct machines at non-negative
/// downtime, copy and cost; a migration or outcome joins to an earlier
/// decision unless none was recorded before it. Throws
/// std::invalid_argument, naming the line, on a foreign schema or a
/// record that breaks a rule.
DecisionDoc parse_decision_log(std::string_view text);

}  // namespace tracon::obs
