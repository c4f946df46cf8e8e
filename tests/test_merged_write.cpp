// The merged-log writer (obs::write_merged) and the ordered hand-off
// under it (parallel_ordered): stamp windows formatted on a worker pool
// and written in chunk order give the bytes of one serial merge at any
// worker count; the hand-off consumes items in order on the caller,
// holds at most its window of them, and brings a worker's or the
// consumer's exception back to the caller after every worker joined;
// doubles repeated from chunk to chunk print what std::to_chars prints,
// whichever ring slot's memo formats them; the decision log, the span
// log and the tracer write the same bytes at 1 and 4 workers when their
// parts span many chunks.
#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/decision_log.hpp"
#include "obs/event_tracer.hpp"
#include "obs/jsonl.hpp"
#include "obs/span_log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stamp_merge.hpp"

namespace tracon {
namespace {

using obs::JsonlBuffer;
using obs::kMergedChunkRecords;

constexpr std::size_t kWorkerCounts[] = {1, 2, 3, 4, 8};

// ---------------------------------------------------------------------
// parallel_ordered

TEST(ParallelOrdered, ConsumesInOrderOnTheCallerWithinItsWindow) {
  for (std::size_t threads : kWorkerCounts) {
    for (std::size_t window : {1, 2, 3, 8}) {
      for (std::size_t n : {0, 1, 2, 200}) {
        std::vector<int> produced(n, 0);
        std::vector<std::size_t> consumed;
        std::atomic<std::size_t> in_flight{0};
        std::atomic<std::size_t> most{0};
        const std::thread::id caller = std::this_thread::get_id();
        bool consumed_on_caller = true;
        parallel_ordered(
            threads, n, window,
            [&](std::size_t i) {
              const std::size_t now = ++in_flight;
              std::size_t seen = most.load();
              while (seen < now && !most.compare_exchange_weak(seen, now)) {
              }
              // Uneven work, so items finish out of order.
              if (i % 7 == 3)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
              ++produced[i];
            },
            [&](std::size_t i) {
              consumed_on_caller = consumed_on_caller &&
                                   std::this_thread::get_id() == caller;
              // produce(i) has returned and published its writes.
              EXPECT_EQ(produced[i], 1) << "item " << i;
              consumed.push_back(i);
              --in_flight;
            });
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        EXPECT_EQ(consumed, order)
            << threads << " threads, window " << window << ", n " << n;
        EXPECT_LE(most.load(), window)
            << threads << " threads, window " << window << ", n " << n;
        EXPECT_TRUE(consumed_on_caller);
      }
    }
  }
}

TEST(ParallelOrdered, RethrowsAFailedProduceOrConsumeAfterTheJoin) {
  for (std::size_t threads : kWorkerCounts) {
    std::size_t consumed = 0;
    EXPECT_THROW(parallel_ordered(
                     threads, 200, 2 * threads,
                     [](std::size_t i) {
                       if (i == 37) throw std::runtime_error("produce 37");
                     },
                     [&](std::size_t i) {
                       EXPECT_EQ(i, consumed);
                       ++consumed;
                     }),
                 std::runtime_error);
    // The consumer never passes the item that failed.
    EXPECT_LE(consumed, 37u);

    std::atomic<std::size_t> produced{0};
    EXPECT_THROW(parallel_ordered(
                     threads, 200, 2 * threads,
                     [&](std::size_t) { ++produced; },
                     [](std::size_t i) {
                       if (i == 5) throw std::runtime_error("consume 5");
                     }),
                 std::runtime_error);
    // Claiming stops at the failure: no more than a window past it.
    EXPECT_LE(produced.load(), 6 + 2 * threads);
  }
}

TEST(ParallelOrdered, RejectsAnEmptyWindow) {
  EXPECT_THROW(parallel_ordered(
                   2, 4, 0, [](std::size_t) {}, [](std::size_t) {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// write_merged

/// Parts of stamps, each non-decreasing, and a count of part-less
/// records written after them.
struct Log {
  std::vector<std::vector<double>> parts;
  std::size_t own = 0;
};

/// A part of `n` stamps on the integers, each step 0, 1 or 2 from
/// `seed`: runs of equal stamps within a part, and shared by every
/// part, so equal stamps meet across parts on the window cuts.
std::vector<double> seeded_part(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> stamps;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<double>(rng.index(3));
    stamps.push_back(t);
  }
  return stamps;
}

/// A handful of doubles that every record repeats, as the logs repeat
/// their prediction table's values: each writer's memo hits in every
/// chunk.
double repeated(std::size_t p, std::size_t i) {
  static constexpr double kValues[] = {
      0.5, 1.0 / 3.0, -0.0, 1e22, 2.2250738585072014e-308, 1234.5678, 0.1};
  return kValues[(3 * p + i) % std::size(kValues)];
}

void format_record(JsonlBuffer& out, const Log& log, std::size_t p,
                   std::size_t i) {
  out.integer(p).raw(" ").integer(i);
  if (p < log.parts.size()) out.raw(" ").number(log.parts[p][i]);
  out.raw(" ").number(repeated(p, i)).end_line();
}

/// The (part, record) order of one serial merge over the whole parts,
/// then the part-less records.
std::vector<std::pair<std::size_t, std::size_t>> serial_order(
    const Log& log) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<PartRange> whole;
  for (const auto& part : log.parts) whole.push_back({0, part.size()});
  merge_by_stamp(
      whole, [&](std::size_t p, std::size_t i) { return log.parts[p][i]; },
      [&](std::size_t p, std::size_t i) { order.emplace_back(p, i); });
  for (std::size_t i = 0; i < log.own; ++i)
    order.emplace_back(log.parts.size(), i);
  return order;
}

/// What one serial merge over the whole parts writes.
std::string serial(const Log& log) {
  std::ostringstream os;
  JsonlBuffer out(os);
  for (const auto& [p, i] : serial_order(log)) format_record(out, log, p, i);
  out.flush();
  return os.str();
}

/// serial()'s text, built with std::to_chars instead of JsonlBuffer.
std::string to_chars_serial(const Log& log) {
  std::string text;
  auto number = [&](double v) {
    char buf[32];
    text += ' ';
    text.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  for (const auto& [p, i] : serial_order(log)) {
    text += std::to_string(p) + " " + std::to_string(i);
    if (p < log.parts.size()) number(log.parts[p][i]);
    number(repeated(p, i));
    text += '\n';
  }
  return text;
}

std::string windowed(const Log& log, std::size_t threads) {
  std::vector<std::size_t> sizes;
  for (const auto& part : log.parts) sizes.push_back(part.size());
  std::ostringstream os;
  obs::write_merged(
      os, threads, sizes, log.own,
      [&](std::size_t p, std::size_t i) { return log.parts[p][i]; },
      [&](JsonlBuffer& out, std::size_t p, std::size_t i) {
        format_record(out, log, p, i);
      });
  return os.str();
}

TEST(WriteMerged, WindowsWriteTheSerialMergeAtEveryWorkerCount) {
  const std::size_t chunk = kMergedChunkRecords;
  std::vector<std::pair<const char*, Log>> logs;
  Log many;  // many windows, ties on the cuts, an empty part
  for (std::uint64_t p = 0; p < 7; ++p)
    many.parts.push_back(seeded_part(100 + p, p == 4 ? 0 : chunk * (2 + p)));
  logs.emplace_back("many parts", many);
  logs.emplace_back("one part", Log{{seeded_part(7, chunk * 9 + 5)}, 0});
  Log one_stamp;  // one window: no cut can split equal stamps
  for (int p = 0; p < 4; ++p)
    one_stamp.parts.emplace_back(chunk + 300, 5.0);
  logs.emplace_back("one stamp", one_stamp);
  Log with_own = many;  // part-less records after the parts
  with_own.own = chunk * 3 + 17;
  logs.emplace_back("parts then part-less", with_own);
  logs.emplace_back("part-less only", Log{{}, chunk * 5 + 1});
  logs.emplace_back("empty", Log{{{}, {}}, 0});

  for (const auto& [name, log] : logs) {
    const std::string expected = serial(log);
    for (std::size_t threads : kWorkerCounts)
      EXPECT_EQ(windowed(log, threads), expected)
          << name << " at " << threads << " workers";
  }
}

TEST(WriteMerged, RepeatedDoublesPrintWhatToCharsPrintsAcrossChunks) {
  // Every chunk repeats the same few doubles and stamps, so each ring
  // slot's memo formats them once and then replays them in the chunks
  // after, on whichever worker takes the slot.
  Log log;
  for (std::uint64_t p = 0; p < 4; ++p)
    log.parts.push_back(seeded_part(300 + p, 3 * kMergedChunkRecords + p));
  log.own = 2 * kMergedChunkRecords + 5;
  const std::string expected = to_chars_serial(log);
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(windowed(log, threads), expected) << threads << " workers";
}

TEST(WriteMerged, WindowsStayNearTheirTargetWhenPartsRunInStep) {
  // 32 parts recording at the same rate: every part's k-th record has
  // nearly the same stamp.
  const std::size_t records = kMergedChunkRecords;
  std::vector<std::vector<double>> parts;
  for (std::uint64_t p = 0; p < 32; ++p) {
    Rng rng(900 + p);
    std::vector<double> stamps;
    double t = 0.0;
    for (std::size_t i = 0; i < 8 * records; ++i) {
      t += rng.exponential(1.0);
      stamps.push_back(t);
    }
    parts.push_back(std::move(stamps));
  }
  std::vector<std::size_t> sizes;
  for (const auto& part : parts) sizes.push_back(part.size());
  auto stamp = [&](std::size_t p, std::size_t i) { return parts[p][i]; };
  const std::vector<double> cuts = stamp_cuts(sizes, stamp, records);
  std::size_t total = 0;
  for (std::size_t w = 0; w <= cuts.size(); ++w) {
    std::size_t n = 0;
    for (const PartRange& r : stamp_window(sizes, stamp, cuts, w))
      n += r.end - r.begin;
    EXPECT_LE(n, 2 * records) << "window " << w;
    total += n;
  }
  EXPECT_EQ(total, 32 * 8 * records);
  EXPECT_GE(cuts.size(), 32 * 8 / 2);
}

// ---------------------------------------------------------------------
// The logs, with parts larger than a chunk

constexpr std::size_t kShards = 3;
constexpr std::size_t kRecordsPerShard = 2 * kMergedChunkRecords + 100;

/// Non-decreasing times on a coarse grid, so records of different
/// shards share stamps.
std::vector<double> shard_times(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> times;
  double t = 0.0;
  for (std::size_t i = 0; i < kRecordsPerShard; ++i) {
    t += 0.5 * static_cast<double>(rng.index(3));
    times.push_back(t);
  }
  return times;
}

obs::DecisionEvent decision_at(std::uint64_t task, double t,
                               std::size_t app) {
  obs::DecisionEvent d;
  d.task = task;
  d.time_s = t;
  d.app = app;
  d.scheduler = "MIX_8";
  d.objective = "runtime";
  d.families = {"wmm", "nlm"};
  d.weights = {0.25, 0.75};
  for (std::size_t c = 0; c < 3; ++c) {
    obs::DecisionCandidate slot;
    if (c > 0) slot.neighbour = c;
    slot.score = 10.0 + static_cast<double>(c) + t / 7.0;
    slot.by_family = {slot.score * 0.9, slot.score * 1.1};
    d.candidates.push_back(slot);
  }
  d.chosen = task % 3;
  d.margin = 0.5;
  d.predicted_runtime_s = 11.0 + t;
  d.predicted_iops = 40.0;
  return d;
}

obs::DecisionLog decision_shard(std::uint64_t seed) {
  obs::DecisionLog log;
  log.set_enabled(true);
  const std::vector<double> times = shard_times(seed);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const std::uint64_t task = i / 2;
    if (i % 2 == 0) {
      log.record_decision(decision_at(task, times[i], i % 8));
      log.bind_machine(task, i % 5);
    } else {
      obs::DecisionEvent o;
      o.task = task;
      o.time_s = times[i];
      o.app = i % 8;
      o.machine = i % 5;
      if (i % 3 != 0) o.neighbour = i % 4;
      o.runtime_s = 12.0 + static_cast<double>(i % 11);
      o.iops = 39.5;
      o.solo_runtime_s = 10.0;
      log.record_outcome(o);
    }
  }
  return log;
}

TEST(MergedLogs, DecisionLogWritesTheSameBytesAtOneAndFourWorkers) {
  obs::DecisionLog merged;
  obs::DecisionLog shards[kShards];
  for (std::size_t s = 0; s < kShards; ++s) {
    shards[s] = decision_shard(10 + s);
    merged.append_part(shards[s], 5 * s, kRecordsPerShard * s);
  }
  std::ostringstream one, four;
  merged.write(one, 1);
  merged.write(four, 4);
  EXPECT_EQ(four.str(), one.str());
  // The same records as part-less ones, in events() order, write the
  // same text.
  obs::DecisionLog flat;
  for (const obs::DecisionEvent& e : merged.events()) flat.append(e);
  std::ostringstream flat_four;
  flat.write(flat_four, 4);
  EXPECT_EQ(flat_four.str(), one.str());
  EXPECT_EQ(obs::parse_decision_log(one.str()).events.size(),
            kShards * kRecordsPerShard);
}

obs::SpanLog span_shard(std::uint64_t seed) {
  using Kind = obs::SpanEvent::Kind;
  obs::SpanLog log;
  log.set_enabled(true);
  const std::vector<double> starts = shard_times(seed);
  constexpr Kind kKinds[] = {Kind::kQueued, Kind::kRunning,
                             Kind::kMigrationCopy, Kind::kMigrationFreeze,
                             Kind::kCompleted};
  for (std::size_t i = 0; i < starts.size(); ++i) {
    obs::SpanEvent e;
    e.kind = kKinds[i % 5];
    e.task = i / 5;
    e.t0_s = starts[i];
    e.t1_s = e.kind == Kind::kCompleted ? starts[i] : starts[i] + 1.5;
    e.app = i % 8;
    if (e.kind != Kind::kQueued) e.machine = i % 6;
    if (i % 4 != 0) e.neighbour = i % 3;
    e.factor = 0.5 + 0.01 * static_cast<double>(i % 40);
    e.copy_factor = 0.8;
    e.solo_runtime_s = 20.0 + static_cast<double>(i % 9);
    log.record(e);
  }
  return log;
}

TEST(MergedLogs, SpanLogWritesTheSameBytesAtOneAndFourWorkers) {
  obs::SpanLog merged;
  obs::SpanLog shards[kShards];
  for (std::size_t s = 0; s < kShards; ++s) {
    shards[s] = span_shard(20 + s);
    merged.append_part(shards[s], 6 * s, kRecordsPerShard * s);
  }
  std::ostringstream one, four;
  merged.write(one, 1);
  merged.write(four, 4);
  EXPECT_EQ(four.str(), one.str());
  // Read back and appended, the spans are one part-less log that
  // writes the same text.
  obs::SpanLog flat;
  for (const obs::SpanEvent& e : obs::parse_span_log(one.str()).events)
    flat.append(e);
  std::ostringstream flat_four;
  flat.write(flat_four, 4);
  EXPECT_EQ(flat_four.str(), one.str());
}

obs::EventTracer tracer_shard(std::uint64_t seed) {
  using Kind = obs::TraceEventKind;
  obs::EventTracer tracer;
  tracer.set_enabled(true);
  const std::vector<double> times = shard_times(seed);
  constexpr Kind kKinds[] = {Kind::kTaskArrival, Kind::kTaskPlaced,
                             Kind::kVmStart,     Kind::kTaskCompleted,
                             Kind::kSchedDecision, Kind::kVmStop};
  for (std::size_t i = 0; i < times.size(); ++i) {
    obs::TraceEvent ev;
    ev.time_s = times[i];
    ev.kind = kKinds[i % 6];
    if (ev.kind != Kind::kSchedDecision) ev.app = i % 8;
    if (ev.kind != Kind::kTaskArrival && ev.kind != Kind::kSchedDecision)
      ev.machine = i % 7;
    ev.count = i % 5;
    ev.value = ev.kind == Kind::kTaskCompleted ? 0.25 : 1.0 / 3.0;
    ev.value2 = static_cast<double>(i % 13);
    tracer.record(ev);
  }
  return tracer;
}

TEST(MergedLogs, TracerExportsWriteTheSameBytesAtOneAndFourWorkers) {
  obs::EventTracer merged;
  for (std::size_t s = 0; s < kShards; ++s)
    merged.append_part(tracer_shard(30 + s), 7 * s);
  obs::EventTracer flat;
  flat.set_enabled(true);
  for (const obs::TraceEvent& ev : merged.events()) flat.record(ev);
  using Writer = void (obs::EventTracer::*)(std::ostream&, std::size_t) const;
  for (Writer write :
       {&obs::EventTracer::write_chrome_json, &obs::EventTracer::write_jsonl,
        &obs::EventTracer::write_task_events_csv,
        &obs::EventTracer::write_task_events_jsonl}) {
    std::ostringstream one, four, flat_four;
    (merged.*write)(one, 1);
    (merged.*write)(four, 4);
    (flat.*write)(flat_four, 4);
    EXPECT_EQ(four.str(), one.str());
    EXPECT_EQ(flat_four.str(), one.str());
    EXPECT_GT(one.str().size(), 0u);
  }
}

}  // namespace
}  // namespace tracon
