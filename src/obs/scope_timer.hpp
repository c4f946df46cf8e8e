// Wall-clock scope profiling for the expensive kernels (NLS fit,
// stepwise selection, MIX rotation, host-sim advance).
//
// This is the ONE place in the library allowed to read a wall clock
// (tracon_analyze's determinism rule exempts src/obs/scope_timer
// explicitly). Profiling is opt-in: until
// ProfRegistry::global().set_enabled(true) a TRACON_PROF_SCOPE costs a
// single branch, and nothing wall-clock-dependent ever reaches the
// deterministic metrics/trace exports — the report is a separate,
// explicitly wall-clock stream (tracon --prof).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

namespace tracon::obs {

struct ScopeStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Process-wide profiling scope table. Scopes register on first use
/// (cheap, once per call site via a function-local static) and
/// accumulate only while enabled. Registration is mutex-guarded so
/// first-use from sharded worker threads is safe; ScopeStats
/// accumulation itself is NOT synchronized, which is why the CLI
/// rejects --prof combined with --threads > 1.
class ProfRegistry {
 public:
  static ProfRegistry& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Get-or-create; the returned reference stays valid for the
  /// registry's lifetime. `name` must be a dotted snake_case path.
  ScopeStats& scope(const std::string& name);

  const std::map<std::string, ScopeStats>& scopes() const { return scopes_; }
  void reset();

  /// Human-readable table, scopes with calls first, sorted by total
  /// time descending.
  void write_text(std::ostream& os) const;

 private:
  std::atomic<bool> enabled_{false};
  std::mutex register_mutex_;
  std::map<std::string, ScopeStats> scopes_;
};

/// RAII timer accumulating into a ScopeStats slot; a nullptr slot
/// disarms it (the disabled-profiling fast path).
class ScopeTimer {
 public:
  explicit ScopeTimer(ScopeStats* stats) : stats_(stats) {
    if (stats_ != nullptr) start_ns_ = now_ns();
  }
  ~ScopeTimer() {
    if (stats_ != nullptr) stop();
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

  /// Monotonic wall clock in nanoseconds (the obs-layer exemption).
  static std::uint64_t now_ns();

 private:
  void stop();

  ScopeStats* stats_;
  std::uint64_t start_ns_ = 0;
};

#define TRACON_PROF_CONCAT_INNER_(a, b) a##b
#define TRACON_PROF_CONCAT_(a, b) TRACON_PROF_CONCAT_INNER_(a, b)

/// Times the enclosing scope under `name` when profiling is enabled.
#define TRACON_PROF_SCOPE(name)                                            \
  static ::tracon::obs::ScopeStats& TRACON_PROF_CONCAT_(                   \
      tracon_prof_stats_, __LINE__) =                                      \
      ::tracon::obs::ProfRegistry::global().scope(name);                   \
  ::tracon::obs::ScopeTimer TRACON_PROF_CONCAT_(tracon_prof_timer_,        \
                                                __LINE__)(                 \
      ::tracon::obs::ProfRegistry::global().enabled()                      \
          ? &TRACON_PROF_CONCAT_(tracon_prof_stats_, __LINE__)             \
          : nullptr)

}  // namespace tracon::obs
