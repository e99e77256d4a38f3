// Input generation, answer checking and counter helpers shared by the
// workloads.

#ifndef PERFBENCH_GEOMETRY_H_
#define PERFBENCH_GEOMETRY_H_

#include <cstdint>
#include <random>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "core/point.h"
#include "core/query.h"
#include "cluster/cluster.h"
#include "engine/query_engine.h"

namespace perfbench {

/// Stateless 64-bit mix (splitmix64 finalizer) for deriving per-client
/// and per-item seeds from the run's --seed.
uint64_t Mix(uint64_t a, uint64_t b);

/// `coords` plus Gaussian noise of deviation `sigma` on every axis.
std::vector<double> Jittered(const std::vector<double>& coords, double sigma,
                             std::mt19937_64* rng);

FlatPoints Flatten(const std::vector<semtree::KdPoint>& corpus, size_t dims);

/// One answered query kept for the brute-force check.
struct Sample {
  semtree::SpatialQuery query;
  std::vector<Neighbor> got;
};

/// Checks every exact sample against brute force over `points` (on a
/// few threads) and adds each capped k-NN sample's recall@k to
/// `recall_sum` / `recall_n`.
void CheckSamples(const FlatPoints& points,
                  const std::vector<const Sample*>& samples, Report* report,
                  double* recall_sum, size_t* recall_n);

/// Engine options of the engine workloads: one worker per CPU the
/// workload is pinned to, the rest at their defaults.
semtree::QueryEngineOptions EngineOptions();

/// Adds the interconnect traffic between two NetworkStats() readings.
void AddNetworkDelta(const semtree::ClusterStats& from,
                     const semtree::ClusterStats& to,
                     semtree::ClusterStats* acc);

/// Nanoseconds per distance of core::BatchDistance scanning all of
/// `points` from each of `queries`.
double KernelNsPerDistance(const FlatPoints& points,
                           const std::vector<semtree::SpatialQuery>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_GEOMETRY_H_
