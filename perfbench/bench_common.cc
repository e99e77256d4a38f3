#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

constexpr size_t kKeptMismatches = 10;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++mismatches_;
  if (first_mismatches_.size() < kKeptMismatches) {
    first_mismatches_.push_back(what);
  }
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mismatches_ == 0;
}

std::string Report::ToJson(const Args& args) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"correct\": " << (mismatches_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics_[i].name) << ": {\"value\": "
        << JsonNumber(metrics_[i].value)
        << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  out << "}, \"workload\": " << JsonString(args.workload)
      << ", \"seed\": " << args.seed << ", \"traced\": "
      << (args.trace ? "true" : "false") << ", \"mismatches\": "
      << mismatches_ << ", \"first_mismatches\": [";
  for (size_t i = 0; i < first_mismatches_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(first_mismatches_[i]);
  }
  out << "]}";
  return out.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> RunPhases(
    size_t clients, int phases, double phase_s, double warmup_s,
    const std::function<void(size_t client, int phase)>& op,
    const std::function<void(int finished_phase)>& between) {
  std::vector<double> walls;
  for (int phase = -1; phase < phases; ++phase) {
    const double length = phase < 0 ? warmup_s : phase_s;
    if (length <= 0.0) continue;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(length));
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&op, c, phase, deadline] {
        while (Clock::now() < deadline) op(c, phase);
      });
    }
    for (std::thread& t : threads) t.join();
    if (phase >= 0) walls.push_back(Seconds(start, Clock::now()));
    if (phase + 1 < phases) between(phase);
  }
  return walls;
}

namespace {
constexpr double kMinUs = 0.01;
constexpr double kGrowth = 1.005;
const double kLogGrowth = std::log(kGrowth);
constexpr size_t kBuckets = 5200;  // 0.01 µs * 1.005^5200 is half an hour.
}  // namespace

Latencies::Latencies() : buckets_(kBuckets, 0) {}

void Latencies::Add(double us) {
  const double steps = us > kMinUs ? std::log(us / kMinUs) / kLogGrowth : 0.0;
  buckets_[std::min(kBuckets - 1, static_cast<size_t>(steps))]++;
  ++count_;
}

void Latencies::Merge(const Latencies& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Latencies::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t below = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (below + buckets_[i] >= rank) {
      const double within =
          (static_cast<double>(rank - below) - 0.5) / double(buckets_[i]);
      return kMinUs * std::exp((double(i) + within) * kLogGrowth);
    }
    below += buckets_[i];
  }
  return kMinUs * std::exp(double(kBuckets) * kLogGrowth);
}

LoopSummary Summarize(const std::vector<ClientLatencies>& clients,
                      const std::vector<double>& phase_seconds) {
  LoopSummary s;
  std::vector<double> rates;
  std::vector<double> p50[kNumClasses];
  std::vector<double> p90[kNumClasses];
  std::vector<double> p99[kNumClasses];
  for (size_t phase = 0; phase < phase_seconds.size(); ++phase) {
    uint64_t ops = 0;
    for (int cls = 0; cls < kNumClasses; ++cls) {
      Latencies pooled;
      for (const ClientLatencies& c : clients) {
        pooled.Merge(c.phases[phase][cls]);
      }
      ops += pooled.count();
      if (pooled.count() > 0) {
        p50[cls].push_back(pooled.Quantile(0.50));
        p90[cls].push_back(pooled.Quantile(0.90));
        p99[cls].push_back(pooled.Quantile(0.99));
      }
    }
    s.ops += ops;
    rates.push_back(double(ops) / phase_seconds[phase]);
  }
  s.throughput_ops_s = Median(rates);
  for (int cls = 0; cls < kNumClasses; ++cls) {
    s.p50_us[cls] = Median(p50[cls]);
    s.p90_us[cls] = Median(p90[cls]);
    s.p99_us[cls] = Median(p99[cls]);
  }
  std::fprintf(stderr, "phase throughput (ops/s):");
  for (double r : rates) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  static const char* const kNames[kNumClasses] = {"knn", "range", "write"};
  for (int cls = 0; cls < kNumClasses; ++cls) {
    if (p50[cls].empty()) continue;
    std::fprintf(stderr, "phase %s p50/p90/p99 (us):", kNames[cls]);
    for (size_t i = 0; i < p50[cls].size(); ++i) {
      std::fprintf(stderr, " %.0f/%.0f/%.0f", p50[cls][i], p90[cls][i],
                   p99[cls][i]);
    }
    std::fprintf(stderr, "\n");
  }
  return s;
}

CpuPin::CpuPin(size_t cpus) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  size_t taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < cpus; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  pinned_ = sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Tracer::Tracer(bool enabled, size_t lanes)
    : enabled_(enabled),
      origin_(Clock::now()),
      lanes_(lanes),
      next_(lanes, 0) {
  if (enabled_) {
    for (auto& lane : lanes_) lane.reserve(1 << 16);
  }
}

uint64_t Tracer::NewId(size_t lane) {
  if (!enabled_) return 0;
  return (static_cast<uint64_t>(lane + 1) << 40) | ++next_[lane];
}

void Tracer::Record(size_t lane, uint64_t id, const char* name,
                    Clock::time_point start, Clock::time_point end,
                    uint64_t parent, uint64_t op) {
  if (!enabled_) return;
  lanes_[lane].push_back(
      {name,
       std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
           .count(),
       std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
           .count(),
       id, parent, op});
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(double(s.end_ns - s.start_ns) / 1000.0);
      }
    }
  }
  return out;
}

double Tracer::MedianUs(const char* name) const {
  return Median(Durations(name));
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span_id,parent_id,op_id,lane,name,start_ns,end_ns\n");
  for (size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (const Span& s : lanes_[lane]) {
      std::fprintf(f, "%llu,%llu,%llu,%zu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), lane, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

std::string OutputPath(const Args& args, const char* suffix) {
  return args.out_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + suffix;
}

void WriteSpans(const Tracer& tracer, const Args& args, Report* report) {
  if (!tracer.WriteCsv(OutputPath(args, "-spans.csv"))) {
    report->Fail("cannot write the span file");
  }
}

}  // namespace perfbench
