#include "obs/decision_log.hpp"

#include <iterator>
#include <ostream>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "util/error.hpp"
#include "util/stamp_merge.hpp"

namespace tracon::obs {

namespace {

/// One of a record kind's doubles: its JSON key (with the separator
/// before it) and its DecisionEvent field. DecisionLog::Record::value
/// holds a kind's doubles in this order, which is also output order.
struct ValueField {
  std::string_view json;
  double DecisionEvent::*field;
};

constexpr ValueField kDecisionValues[] = {
    {", \"margin\": ", &DecisionEvent::margin},
    {", \"predicted_runtime_s\": ", &DecisionEvent::predicted_runtime_s},
    {", \"predicted_iops\": ", &DecisionEvent::predicted_iops}};
constexpr ValueField kMigrationValues[] = {
    {", \"predicted_stay_s\": ", &DecisionEvent::predicted_stay_s},
    {", \"predicted_move_s\": ", &DecisionEvent::predicted_move_s},
    {", \"downtime_s\": ", &DecisionEvent::downtime_s},
    {", \"copy_s\": ", &DecisionEvent::copy_s},
    {", \"cost_s\": ", &DecisionEvent::cost_s},
    {", \"margin\": ", &DecisionEvent::margin}};
constexpr ValueField kOutcomeValues[] = {
    {", \"runtime_s\": ", &DecisionEvent::runtime_s},
    {", \"iops\": ", &DecisionEvent::iops},
    {", \"solo_runtime_s\": ", &DecisionEvent::solo_runtime_s}};

std::span<const ValueField> value_fields(DecisionEvent::Kind kind) {
  switch (kind) {
    case DecisionEvent::Kind::kDecision:
      return kDecisionValues;
    case DecisionEvent::Kind::kMigration:
      return kMigrationValues;
    case DecisionEvent::Kind::kOutcome:
      return kOutcomeValues;
  }
  return {};
}

std::vector<double> number_array_field(const JsonValue& obj,
                                       const std::string& key,
                                       const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_array()) {
    throw std::invalid_argument(std::string(what) + " lacks array \"" + key +
                                "\"");
  }
  std::vector<double> out;
  out.reserve(v->as_array().size());
  for (const auto& entry : v->as_array()) {
    if (!entry->is_number()) {
      throw std::invalid_argument(std::string(what) + " " + key +
                                  " entry is not a number");
    }
    out.push_back(entry->as_number());
  }
  return out;
}

DecisionEvent parse_event(const JsonValue& obj) {
  DecisionEvent e;
  const std::string& kind = text_field(obj, "kind", "record");
  e.task = count_field(obj, "task", "record");
  e.time_s = double_field(obj, "t", "record");
  e.app = index_field(obj, "app", "record");
  if (obj.find("machine") != nullptr) {
    e.machine = index_field(obj, "machine", "record");
  }
  if (kind == "decision") {
    e.kind = DecisionEvent::Kind::kDecision;
    e.scheduler = text_field(obj, "scheduler", "decision");
    e.objective = text_field(obj, "objective", "decision");
    const JsonValue* families = obj.find("families");
    if (families == nullptr || !families->is_array()) {
      throw std::invalid_argument("decision lacks array \"families\"");
    }
    for (const auto& name : families->as_array()) {
      if (!name->is_string()) {
        throw std::invalid_argument("decision family name is not a string");
      }
      e.families.push_back(name->as_string());
    }
    e.weights = number_array_field(obj, "weights", "decision");
    const JsonValue* candidates = obj.find("candidates");
    if (candidates == nullptr || !candidates->is_array()) {
      throw std::invalid_argument("decision lacks array \"candidates\"");
    }
    for (const auto& entry : candidates->as_array()) {
      DecisionCandidate c;
      c.neighbour = corunner_field(*entry, "neighbour", "candidate");
      c.score = double_field(*entry, "score", "candidate");
      c.by_family = number_array_field(*entry, "by_family", "candidate");
      e.candidates.push_back(std::move(c));
    }
    e.chosen = index_field(obj, "chosen", "decision");
    if (e.chosen >= e.candidates.size()) {
      throw std::invalid_argument(
          "decision \"chosen\" is out of candidate range");
    }
    e.margin = double_field(obj, "margin", "decision");
    e.predicted_runtime_s =
        double_field(obj, "predicted_runtime_s", "decision");
    e.predicted_iops = double_field(obj, "predicted_iops", "decision");
  } else if (kind == "migration") {
    e.kind = DecisionEvent::Kind::kMigration;
    e.from_machine = index_field(obj, "from_machine", "migration");
    e.from_neighbour = corunner_field(obj, "from_neighbour", "migration");
    e.neighbour = corunner_field(obj, "neighbour", "migration");
    e.predicted_stay_s = double_field(obj, "predicted_stay_s", "migration");
    e.predicted_move_s = double_field(obj, "predicted_move_s", "migration");
    e.downtime_s = double_field(obj, "downtime_s", "migration");
    e.copy_s = double_field(obj, "copy_s", "migration");
    e.cost_s = double_field(obj, "cost_s", "migration");
    e.margin = double_field(obj, "margin", "migration");
  } else if (kind == "outcome") {
    e.kind = DecisionEvent::Kind::kOutcome;
    e.neighbour = corunner_field(obj, "neighbour", "outcome");
    e.runtime_s = double_field(obj, "runtime_s", "outcome");
    e.iops = double_field(obj, "iops", "outcome");
    e.solo_runtime_s = double_field(obj, "solo_runtime_s", "outcome");
  } else {
    throw std::invalid_argument("record has unknown kind \"" + kind + "\"");
  }
  return e;
}

/// The structural rules a record must keep, given the records read
/// before it: times never run backwards (from 0); a decision names at
/// least one model family and carries one weight and, per candidate,
/// one prediction per family; a migration moves a task between two
/// distinct machines at non-negative cost; and a migration or outcome
/// joins to an earlier decision, unless the log had recorded none yet
/// (a FIFO-style run). `decided` holds the tasks decided so far.
void check_event(const DecisionEvent& e, double prev_time_s,
                 std::set<std::uint64_t>* decided) {
  if (e.time_s < prev_time_s) {
    throw std::invalid_argument("record time runs backwards: t " +
                                json_number(e.time_s) + " after " +
                                json_number(prev_time_s));
  }
  if (e.kind == DecisionEvent::Kind::kDecision) {
    if (e.families.empty()) {
      throw std::invalid_argument("decision names no model family");
    }
    bool aligned = e.weights.size() == e.families.size();
    for (const DecisionCandidate& c : e.candidates)
      aligned = aligned && c.by_family.size() == e.families.size();
    if (!aligned) {
      throw std::invalid_argument(
          "decision's weights and by_family arrays do not match its "
          "families");
    }
    decided->insert(e.task);
    return;
  }
  const bool migration = e.kind == DecisionEvent::Kind::kMigration;
  if (migration) {
    if (e.machine == DecisionEvent::kNoMachine ||
        e.machine == e.from_machine) {
      throw std::invalid_argument(
          "migration does not name two distinct machines");
    }
    for (const auto& [name, value] :
         {std::pair{"downtime_s", e.downtime_s}, std::pair{"copy_s", e.copy_s},
          std::pair{"cost_s", e.cost_s}}) {
      if (value < 0.0) {
        throw std::invalid_argument(std::string("migration cost \"") + name +
                                    "\" is negative");
      }
    }
  }
  if (!decided->empty() && decided->count(e.task) == 0) {
    throw std::invalid_argument(
        std::string(migration ? "migration" : "outcome") + " for task " +
        std::to_string(e.task) + " joins no earlier decision");
  }
}

}  // namespace

std::uint16_t DecisionLog::Stream::intern(const DecisionEvent& e) {
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Key& key = keys[k];
    if (key.scheduler == e.scheduler && key.objective == e.objective &&
        key.families == e.families)
      return static_cast<std::uint16_t>(k);
  }
  TRACON_REQUIRE(keys.size() < 0xffffU,
                 "a decision log interns at most 65535 (scheduler, "
                 "objective, families) triples");
  // The fields between "app" and the weights' values, rendered once.
  std::string json = ", \"scheduler\": \"" + json_escape(e.scheduler) +
                     "\", \"objective\": \"" + json_escape(e.objective) +
                     "\", \"families\": [";
  for (std::size_t f = 0; f < e.families.size(); ++f) {
    if (f != 0) json += ", ";
    json += '"' + json_escape(e.families[f]) + '"';
  }
  json += "], \"weights\": [";
  keys.push_back({e.scheduler, e.objective, e.families, std::move(json)});
  return static_cast<std::uint16_t>(keys.size() - 1);
}

void DecisionLog::Stream::add(const DecisionEvent& e,
                              DecisionEvent::Kind kind) {
  auto id = [](std::size_t value, const char* what) {
    TRACON_REQUIRE(value < Record::kNone, what);
    return static_cast<std::uint32_t>(value);
  };
  auto machine = [&](std::size_t m) {
    return m == DecisionEvent::kNoMachine
               ? Record::kNone
               : id(m, "a decision log machine id must fit in 32 bits");
  };
  auto neighbour = [&](const std::optional<std::size_t>& nb) {
    return nb.has_value()
               ? id(*nb, "a decision log co-runner class must fit in 32 bits")
               : Record::kNone;
  };
  Record r;
  r.kind = kind;
  r.time_s = e.time_s;
  r.task = e.task;
  r.app = id(e.app, "a decision log app class must fit in 32 bits");
  r.machine = machine(e.machine);
  const std::span<const ValueField> fields = value_fields(kind);
  for (std::size_t i = 0; i < fields.size(); ++i)
    r.value[i] = e.*fields[i].field;
  if (kind == DecisionEvent::Kind::kDecision) {
    const std::size_t families = e.families.size();
    TRACON_REQUIRE(e.chosen < e.candidates.size(),
                   "decision's chosen index must address a scanned candidate");
    TRACON_REQUIRE(e.weights.size() == families,
                   "a decision needs one confidence weight per model family");
    r.key = intern(e);
    r.candidates = id(e.candidates.size(), "too many decision candidates");
    r.chosen = static_cast<std::uint32_t>(e.chosen);
    r.first_value = values.size();
    r.first_neighbour = neighbours.size();
    values.insert(values.end(), e.weights.begin(), e.weights.end());
    for (const DecisionCandidate& c : e.candidates) {
      TRACON_REQUIRE(c.by_family.size() == families,
                     "a decision candidate needs one prediction per model "
                     "family");
      values.push_back(c.score);
      values.insert(values.end(), c.by_family.begin(), c.by_family.end());
      neighbours.push_back(neighbour(c.neighbour));
    }
  } else {
    r.neighbour = neighbour(e.neighbour);
    if (kind == DecisionEvent::Kind::kMigration) {
      r.from_machine = machine(e.from_machine);
      r.from_neighbour = neighbour(e.from_neighbour);
    }
  }
  records.push_back(r);
}

void DecisionLog::Stream::clear() {
  records.clear();
  values.clear();
  neighbours.clear();
  keys.clear();
}

DecisionEvent DecisionLog::Stream::event(const Record& r,
                                         std::size_t machine_base,
                                         std::uint64_t task_base) const {
  auto machine = [&](std::uint32_t m) {
    return m == Record::kNone ? DecisionEvent::kNoMachine : m + machine_base;
  };
  auto neighbour = [](std::uint32_t nb) -> std::optional<std::size_t> {
    if (nb == Record::kNone) return std::nullopt;
    return nb;
  };
  DecisionEvent e;
  e.kind = r.kind;
  e.task = r.task + task_base;
  e.time_s = r.time_s;
  e.app = r.app;
  e.machine = machine(r.machine);
  const std::span<const ValueField> fields = value_fields(r.kind);
  for (std::size_t i = 0; i < fields.size(); ++i)
    e.*fields[i].field = r.value[i];
  if (r.kind == DecisionEvent::Kind::kDecision) {
    const Key& key = keys[r.key];
    const std::size_t families = key.families.size();
    e.scheduler = key.scheduler;
    e.objective = key.objective;
    e.families = key.families;
    const double* v = values.data() + r.first_value;
    e.weights.assign(v, v + families);
    v += families;
    for (std::uint32_t c = 0; c < r.candidates; ++c, v += 1 + families) {
      DecisionCandidate candidate;
      candidate.neighbour = neighbour(neighbours[r.first_neighbour + c]);
      candidate.score = v[0];
      candidate.by_family.assign(v + 1, v + 1 + families);
      e.candidates.push_back(std::move(candidate));
    }
    e.chosen = r.chosen;
  } else {
    e.neighbour = neighbour(r.neighbour);
    if (r.kind == DecisionEvent::Kind::kMigration) {
      e.from_machine = machine(r.from_machine);
      e.from_neighbour = neighbour(r.from_neighbour);
    }
  }
  return e;
}

void DecisionLog::Stream::write(JsonlBuffer& out, const Record& r,
                                std::size_t machine_base,
                                std::uint64_t task_base) const {
  // An unset machine keeps DecisionEvent's sentinel; a set one moves
  // into the merged id space.
  auto machine = [&](std::string_view json, std::uint32_t m) {
    out.raw(json).integer(m == Record::kNone ? DecisionEvent::kNoMachine
                                             : m + machine_base);
  };
  // An empty machine is spelled as the string "empty" so a co-runner
  // column is never confused with app class 0.
  auto neighbour = [&](std::string_view json, std::uint32_t nb) {
    out.raw(json);
    if (nb == Record::kNone) {
      out.raw("\"empty\"");
    } else {
      out.integer(nb);
    }
  };
  auto numbers = [&](const double* v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out.raw(", ");
      out.number(v[i]);
    }
  };
  static constexpr std::string_view kKinds[] = {
      "{\"kind\": \"decision\", \"task\": ",
      "{\"kind\": \"migration\", \"task\": ",
      "{\"kind\": \"outcome\", \"task\": "};
  out.raw(kKinds[static_cast<std::size_t>(r.kind)])
      .integer(r.task + task_base)
      .raw(", \"t\": ")
      .number(r.time_s)
      .raw(", \"app\": ")
      .integer(r.app);
  if (r.kind == DecisionEvent::Kind::kDecision) {
    const Key& key = keys[r.key];
    const std::size_t families = key.families.size();
    const double* v = values.data() + r.first_value;
    out.raw(key.json);
    numbers(v, families);
    v += families;
    out.raw("], \"candidates\": [");
    for (std::uint32_t c = 0; c < r.candidates; ++c, v += 1 + families) {
      neighbour(c == 0 ? "{\"neighbour\": " : ", {\"neighbour\": ",
                neighbours[r.first_neighbour + c]);
      out.raw(", \"score\": ").number(v[0]).raw(", \"by_family\": [");
      numbers(v + 1, families);
      out.raw("]}");
    }
    out.raw("], \"chosen\": ").integer(r.chosen);
  } else if (r.kind == DecisionEvent::Kind::kMigration) {
    machine(", \"from_machine\": ", r.from_machine);
    neighbour(", \"from_neighbour\": ", r.from_neighbour);
    machine(", \"machine\": ", r.machine);
    neighbour(", \"neighbour\": ", r.neighbour);
  } else {
    neighbour(", \"neighbour\": ", r.neighbour);
  }
  const std::span<const ValueField> fields = value_fields(r.kind);
  for (std::size_t i = 0; i < fields.size(); ++i)
    out.raw(fields[i].json).number(r.value[i]);
  // A decision's or outcome's machine closes the record once bound.
  if (r.kind != DecisionEvent::Kind::kMigration && r.machine != Record::kNone)
    machine(", \"machine\": ", r.machine);
  out.raw("}").end_line();
}

void DecisionLog::record_decision(const DecisionEvent& event) {
  if (!enabled_) return;
  own_.add(event, DecisionEvent::Kind::kDecision);
  unbound_.emplace_back(event.task, own_.records.size() - 1);
}

void DecisionLog::bind_machine(std::uint64_t task, std::size_t machine) {
  if (!enabled_) return;
  // The latest decision for `task` wins, as it would in a task index.
  for (auto it = unbound_.rbegin(); it != unbound_.rend(); ++it) {
    if (it->first != task) continue;
    TRACON_REQUIRE(machine < Record::kNone,
                   "a decision log machine id must fit in 32 bits");
    own_.records[it->second].machine = static_cast<std::uint32_t>(machine);
    unbound_.erase(std::next(it).base());
    return;
  }
}

void DecisionLog::record_migration(const DecisionEvent& event) {
  if (!enabled_) return;
  TRACON_REQUIRE(event.machine != DecisionEvent::kNoMachine &&
                     event.from_machine != DecisionEvent::kNoMachine,
                 "migration record must carry both host ids");
  TRACON_REQUIRE(event.machine != event.from_machine,
                 "migration source and destination must differ");
  own_.add(event, DecisionEvent::Kind::kMigration);
}

void DecisionLog::record_outcome(const DecisionEvent& event) {
  if (!enabled_) return;
  own_.add(event, DecisionEvent::Kind::kOutcome);
}

void DecisionLog::append(const DecisionEvent& event) {
  own_.add(event, event.kind);
}

void DecisionLog::append_part(DecisionLog& shard, std::size_t machine_base,
                              std::uint64_t task_base) {
  TRACON_REQUIRE(own_.records.empty(),
                 "a decision log takes its merge parts before recording");
  TRACON_REQUIRE(shard.parts_.empty(),
                 "a merge part must hold its own records only");
  TRACON_REQUIRE(shard.unbound_.empty(),
                 "a merge part's decisions must all be bound to machines");
  parts_.push_back({std::move(shard.own_), machine_base, task_base,
                    streaming() ? &shard : nullptr});
  shard.own_ = Stream();
}

std::size_t DecisionLog::size() const {
  std::size_t n = own_.records.size();
  for (const Part& p : parts_) n += p.stream.records.size();
  return n;
}

std::vector<DecisionEvent> DecisionLog::events() const {
  std::vector<DecisionEvent> out;
  out.reserve(size());
  std::vector<PartRange> whole;
  for (const Part& p : parts_) whole.push_back({0, p.stream.records.size()});
  merge_by_stamp(
      whole,
      [&](std::size_t p, std::size_t i) {
        return parts_[p].stream.records[i].time_s;
      },
      [&](std::size_t p, std::size_t i) {
        const Part& part = parts_[p];
        out.push_back(part.stream.event(part.stream.records[i],
                                        part.machine_base, part.task_base));
      });
  for (const Record& r : own_.records) out.push_back(own_.event(r, 0, 0));
  return out;
}

void DecisionLog::set_fingerprint(const std::string& key,
                                  const std::string& value) {
  fingerprint_[key] = value;
}

void DecisionLog::write(std::ostream& os, std::size_t threads) const {
  JsonlBuffer header(os);
  header.log_header(kDecisionLogSchema, fingerprint_).end_line();
  header.flush();
  write_records(os, threads);
}

void DecisionLog::stream_to(std::ostream& os) {
  TRACON_REQUIRE(stream_ == nullptr, "a decision log streams to one file");
  stream_ = &os;
  JsonlBuffer header(os);
  header.log_header(kDecisionLogSchema, fingerprint_).end_line();
  header.flush();
}

void DecisionLog::flush(std::size_t threads) {
  TRACON_REQUIRE(stream_ != nullptr,
                 "a decision log flushes to the file stream_to() named");
  TRACON_REQUIRE(unbound_.empty(),
                 "a flushed decision must be bound to its machine");
  write_records(*stream_, threads);
  own_.clear();
  for (Part& part : parts_) {
    if (part.lender == nullptr) continue;
    part.stream.clear();
    part.lender->own_ = std::move(part.stream);
  }
  parts_.clear();
}

void DecisionLog::write_records(std::ostream& os, std::size_t threads) const {
  std::vector<std::size_t> sizes;
  for (const Part& p : parts_) sizes.push_back(p.stream.records.size());
  write_merged(
      os, threads, sizes, own_.records.size(),
      [&](std::size_t p, std::size_t i) {
        return parts_[p].stream.records[i].time_s;
      },
      [&](JsonlBuffer& out, std::size_t p, std::size_t i) {
        if (p == parts_.size()) {
          own_.write(out, own_.records[i], 0, 0);
          return;
        }
        const Part& part = parts_[p];
        part.stream.write(out, part.stream.records[i], part.machine_base,
                          part.task_base);
      });
}

std::string DecisionLog::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

DecisionDoc parse_decision_log(std::string_view text) {
  DecisionDoc doc;
  double prev_time_s = 0.0;
  std::set<std::uint64_t> decided;
  doc.version = read_jsonl(
      text, kDecisionLogSchema, "decision log",
      [&](const JsonValue& header) {
        doc.fingerprint = string_map_field(header, "fingerprint", "header");
      },
      [&](const JsonValue& record) {
        DecisionEvent e = parse_event(record);
        check_event(e, prev_time_s, &decided);
        prev_time_s = e.time_s;
        doc.events.push_back(std::move(e));
      });
  return doc;
}

}  // namespace tracon::obs
