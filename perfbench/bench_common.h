// Shared machinery of the SemTree benchmark: the closed-loop phase
// runner, latency recording, the span tracer of traced runs, and the
// report every workload fills and main() prints.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <sched.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Everything one run reports. Thread-safe where noted.
class Report {
 public:
  /// Adds a metric; names follow BENCHMARK.json where they appear there.
  void Add(const std::string& name, double value, const std::string& unit);

  /// Records a wrong answer. Thread-safe. Any call makes the run
  /// incorrect; the first few descriptions are kept for stderr.
  void Fail(const std::string& what);

  /// Fails with `what` unless it is empty (the checks' OK value).
  void Expect(const std::string& what) {
    if (!what.empty()) Fail(what);
  }

  bool correct() const;
  bool Has(const std::string& name) const;
  void set_ops(uint64_t attempted, uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  /// One JSON object: correct, attempted, failed, metrics, plus the
  /// workload, seed and the first mismatches.
  std::string ToJson(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  mutable std::mutex mu_;
  size_t mismatches_ = 0;  // Guarded by mu_.
  std::vector<std::string> first_mismatches_;  // Guarded by mu_.
};

/// Operation classes whose latencies are reported separately.
enum OpClass : int { kKnn = 0, kRange = 1, kWrite = 2, kNumClasses = 3 };

/// Latency distribution in fixed memory: log-spaced buckets 0.5% wide
/// from 0.01 µs up, so recording a run's ops never grows the process
/// (peak_rss_mb measures the program, not the benchmark's bookkeeping).
class Latencies {
 public:
  Latencies();
  void Add(double us);
  void Merge(const Latencies& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank quantile, interpolated within its bucket; 0 if empty.
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Latencies of one client, per measured phase and op class. Each
/// client owns one; no locking.
struct ClientLatencies {
  explicit ClientLatencies(int phases) : phases(phases) {}
  std::vector<std::array<Latencies, kNumClasses>> phases;
};

double Median(std::vector<double> values);

/// Closed-loop runner: for every phase, starts `clients` threads that
/// each call `op(client, phase)` back to back until the phase deadline,
/// then joins them, so no op is in flight between phases. `between`
/// runs after each phase except the last. Phase -1 is an unmeasured
/// warm-up of `warmup_s` seconds. Returns the measured phases' wall
/// times in seconds.
std::vector<double> RunPhases(
    size_t clients, int phases, double phase_s, double warmup_s,
    const std::function<void(size_t client, int phase)>& op,
    const std::function<void(int finished_phase)>& between);

/// Per op class, p50, p90 and p99 as the median over phases of each
/// phase's quantile; throughput as the median over phases of completed
/// ops per second; and the ops completed in all measured phases.
struct LoopSummary {
  double throughput_ops_s = 0.0;
  double p50_us[kNumClasses] = {0, 0, 0};
  double p90_us[kNumClasses] = {0, 0, 0};
  double p99_us[kNumClasses] = {0, 0, 0};
  uint64_t ops = 0;
};
LoopSummary Summarize(const std::vector<ClientLatencies>& clients,
                      const std::vector<double>& phase_seconds);

/// CPUs every workload runs on (README.md, "Workloads": spread over the
/// host's CPUs, cross-CPU wake-ups and steal time swing the figures 2-3x
/// between identical runs; on one CPU they hold within a few percent).
inline constexpr size_t kWorkloadCpus = 1;

/// Restricts the calling thread, and every thread it starts from now
/// on, to the first `cpus` CPUs it may run on; restores the previous
/// set when destroyed. Threads started meanwhile stay restricted.
class CpuPin {
 public:
  explicit CpuPin(size_t cpus);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Spans of a traced run: name, start, end, parent span, op id. Each
/// client thread records into its own lane; the file is written once
/// at the end. Disabled tracers record nothing.
class Tracer {
 public:
  Tracer(bool enabled, size_t lanes);

  /// A fresh span id of `lane` (ids are unique across lanes; 0 = none).
  uint64_t NewId(size_t lane);

  void Record(size_t lane, uint64_t id, const char* name,
              Clock::time_point start, Clock::time_point end,
              uint64_t parent, uint64_t op);

  /// Runs `fn` and records it as a span with no parent.
  template <typename Fn>
  void Time(size_t lane, const char* name, Fn&& fn) {
    const uint64_t id = NewId(lane);
    const Clock::time_point start = Clock::now();
    fn();
    Record(lane, id, name, start, Clock::now(), 0, id);
  }

  /// Median duration (µs) of the spans called `name`; 0 when none.
  double MedianUs(const char* name) const;

  /// Writes one CSV line per span; false on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint64_t op;
  };
  std::vector<double> Durations(const char* name) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::vector<Span>> lanes_;
  std::vector<uint64_t> next_;
};

/// `<out-dir>/<workload>-seed<N><suffix>`: where a run's files go.
std::string OutputPath(const Args& args, const char* suffix);

/// Writes the traced run's span file; a failure fails the run.
void WriteSpans(const Tracer& tracer, const Args& args, Report* report);

/// Times `fn` and returns microseconds.
template <typename Fn>
double TimeUs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return Micros(start, Clock::now());
}

// Workload entry points; each fills `report` and returns normally even
// on wrong answers (the report says so).
void RunSemtreeZipf(const Args& args, Report* report);
void RunKdtreeRw(const Args& args, Report* report);
void RunRequirements(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
