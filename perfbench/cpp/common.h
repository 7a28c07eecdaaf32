// Shared pieces of the benchmark program: host clock, host-clock spans,
// sim-time percentiles and the per-repetition outcome every workload
// returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One host-clock span around a benchmark call into a layer. `parent` is
/// the index of the enclosing span in the same recorder (-1 = root);
/// `id` names the node, pod, image or scenario the call served.
struct Span {
  std::string name;
  std::string id;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int rep = 0;
};

/// In-memory span recorder. Spans are only opened from the benchmark's
/// own thread; they are written out once, when the benchmark ends.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  class Scope {
   public:
    Scope(Spans* spans, std::string name, std::string id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  void set_rep(int rep) { rep_ = rep; }
  const std::vector<Span>& all() const { return spans_; }
  /// Sum of durations (ms) of spans named `name` in repetition `rep`.
  double total_ms(const std::string& name, int rep) const;
  /// Mean duration (ms) and count of spans named `name` in `rep`.
  double mean_ms(const std::string& name, int rep,
                 std::size_t* count = nullptr) const;
  /// Writes the spans of repetition `rep` as one JSON document. False on
  /// I/O failure.
  bool write_json(const std::string& path, int rep) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int rep_ = 0;
};

/// Appends the host seconds between its construction and destruction to
/// `out`: one entry per timed operation of a repetition.
class OpTimer {
 public:
  explicit OpTimer(std::vector<double>& out) : out_(out), t0_(Clock::now()) {}
  ~OpTimer() { out_.push_back(seconds_since(t0_)); }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  std::vector<double>& out_;
  Clock::time_point t0_;
};

/// Nearest-rank percentile of sim-time samples (q in [0, 1]).
double percentile(std::vector<double> samples, double q);

/// What one repetition of a workload's timed phase produced.
struct RepOutcome {
  /// Host seconds of each timed operation, in order. Repetitions replay
  /// the same operations, so entry i is the same work in every one.
  std::vector<double> op_s;
  std::uint64_t attempted = 0;          ///< checked operations attempted
  std::uint64_t failed = 0;             ///< operations that failed
  std::map<std::string, double> layer;  ///< per-layer counts and ratios
  /// The simulated results (completion times, byte counts, scenario
  /// figures) in a fixed order; every repetition of a run must reproduce
  /// them exactly.
  std::vector<hpcc::SimTime> sim;
  std::vector<std::string> errors;      ///< output checks that failed
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one repetition from fresh program state built from the
  /// workload's generated inputs, checks its outputs, and times the
  /// operations. `spans` is null in untraced repetitions.
  virtual RepOutcome run(Spans* spans) = 0;
};

}  // namespace perfbench
