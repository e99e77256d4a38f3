#include "geometry.h"

#include <thread>

#include "core/kernels.h"

namespace perfbench {
namespace {

constexpr size_t kCheckThreads = 4;

}  // namespace

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E5ABULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<double> Jittered(const std::vector<double>& coords, double sigma,
                             std::mt19937_64* rng) {
  std::normal_distribution<double> noise(0.0, sigma);
  std::vector<double> out = coords;
  for (double& x : out) x += noise(*rng);
  return out;
}

FlatPoints Flatten(const std::vector<semtree::KdPoint>& corpus, size_t dims) {
  FlatPoints flat;
  flat.dims = dims;
  flat.rows.reserve(corpus.size() * dims);
  for (const semtree::KdPoint& p : corpus) {
    flat.rows.insert(flat.rows.end(), p.coords.begin(), p.coords.end());
    flat.ids.push_back(p.id);
  }
  return flat;
}

void CheckSamples(const FlatPoints& points,
                  const std::vector<const Sample*>& samples, Report* report,
                  double* recall_sum, size_t* recall_n) {
  std::vector<double> sums(kCheckThreads, 0.0);
  std::vector<size_t> counts(kCheckThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < samples.size(); i += kCheckThreads) {
        const semtree::SpatialQuery& q = samples[i]->query;
        const std::vector<Neighbor>& got = samples[i]->got;
        if (q.type == semtree::QueryType::kKnn) {
          const std::vector<Neighbor> want =
              BruteKnn(points, q.coords.data(), q.k);
          if (q.budget.exact()) {
            report->Expect(CompareKnn(got, want));
          } else {
            sums[t] += Recall(got, want);
            ++counts[t];
          }
        } else if (q.budget.exact()) {
          report->Expect(CompareRange(
              got,
              BruteRange(points, q.coords.data(),
                         q.radius * (1.0 + kDistanceTolerance)),
              q.radius));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kCheckThreads; ++t) {
    *recall_sum += sums[t];
    *recall_n += counts[t];
  }
}

semtree::QueryEngineOptions EngineOptions() {
  semtree::QueryEngineOptions options;
  options.threads = kWorkloadCpus;
  return options;
}

void AddNetworkDelta(const semtree::ClusterStats& from,
                     const semtree::ClusterStats& to,
                     semtree::ClusterStats* acc) {
  acc->messages += to.messages - from.messages;
  acc->remote_messages += to.remote_messages - from.remote_messages;
  acc->forwards += to.forwards - from.forwards;
  acc->bytes += to.bytes - from.bytes;
}

double KernelNsPerDistance(const FlatPoints& points,
                           const std::vector<semtree::SpatialQuery>& queries) {
  const size_t n = points.ids.size();
  std::vector<double> out(n);
  double us = 0.0;
  for (const semtree::SpatialQuery& q : queries) {
    us += TimeUs([&] {
      semtree::BatchDistance(semtree::Metric::kL2, q.coords.data(),
                             points.dims, points.rows.data(), n, out.data());
    });
  }
  return queries.empty() || n == 0
             ? 0.0
             : us * 1000.0 / (double(queries.size()) * double(n));
}

}  // namespace perfbench
