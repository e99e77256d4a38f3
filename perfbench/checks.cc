#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

namespace perfbench {
namespace {

bool ByDistanceThenId(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

bool Near(double got, double want) {
  return std::abs(got - want) <=
         kDistanceTolerance * std::max(1.0, std::abs(want));
}

std::string Describe(const char* what, size_t pos, const Neighbor& n) {
  return std::string(what) + " at position " + std::to_string(pos) +
         " (id " + std::to_string(n.id) + ", distance " +
         std::to_string(n.distance) + ")";
}

}  // namespace

double L2(const double* a, const double* b, size_t dims) {
  double sum = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

std::vector<Neighbor> BruteKnn(const FlatPoints& points, const double* query,
                               size_t k) {
  std::vector<Neighbor> all(points.ids.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = {points.ids[i],
              L2(query, points.rows.data() + i * points.dims, points.dims)};
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    ByDistanceThenId);
  all.resize(keep);
  return all;
}

std::vector<Neighbor> BruteRange(const FlatPoints& points,
                                 const double* query, double radius) {
  std::vector<Neighbor> hits;
  for (size_t i = 0; i < points.ids.size(); ++i) {
    const double d =
        L2(query, points.rows.data() + i * points.dims, points.dims);
    if (d <= radius) hits.push_back({points.ids[i], d});
  }
  std::sort(hits.begin(), hits.end(), ByDistanceThenId);
  return hits;
}

std::string CheckAnswerShape(const std::vector<Neighbor>& got,
                             const double* query, size_t dims,
                             const CoordsOf& coords, size_t max_size,
                             double radius) {
  if (got.size() > max_size) {
    return "answer holds " + std::to_string(got.size()) +
           " hits, more than " + std::to_string(max_size);
  }
  std::unordered_set<PointId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && ByDistanceThenId(got[i], got[i - 1])) {
      return Describe("out of (distance, id) order", i, got[i]);
    }
    if (!seen.insert(got[i].id).second) {
      return Describe("duplicate id", i, got[i]);
    }
    const double* p = coords(got[i].id);
    if (p == nullptr) return Describe("unknown id", i, got[i]);
    const double truth = L2(query, p, dims);
    if (!Near(got[i].distance, truth)) {
      return Describe("wrong distance", i, got[i]) + ", true " +
             std::to_string(truth);
    }
    if (radius >= 0.0 && truth > radius * (1.0 + kDistanceTolerance)) {
      return Describe("outside the radius", i, got[i]);
    }
  }
  return "";
}

std::string CompareKnn(const std::vector<Neighbor>& got,
                       const std::vector<Neighbor>& want) {
  if (got.size() != want.size()) {
    return "k-NN answer holds " + std::to_string(got.size()) +
           " hits, brute force " + std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Near(got[i].distance, want[i].distance)) {
      return Describe("k-NN distance differs from brute force", i, got[i]) +
             ", expected " + std::to_string(want[i].distance);
    }
  }
  if (want.empty()) return "";
  std::unordered_set<PointId> ids;
  for (const Neighbor& n : got) ids.insert(n.id);
  const double kth = want.back().distance;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!Near(want[i].distance, kth) && ids.count(want[i].id) == 0) {
      return Describe("k-NN answer misses", i, want[i]);
    }
  }
  return "";
}

std::string CompareRange(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want, double radius) {
  std::unordered_set<PointId> got_ids;
  for (const Neighbor& n : got) got_ids.insert(n.id);
  std::unordered_set<PointId> want_ids;
  for (size_t i = 0; i < want.size(); ++i) {
    want_ids.insert(want[i].id);
    if (!Near(want[i].distance, radius) && got_ids.count(want[i].id) == 0) {
      return Describe("range answer misses", i, want[i]);
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (want_ids.count(got[i].id) == 0 && !Near(got[i].distance, radius)) {
      return Describe("range answer holds a non-member", i, got[i]);
    }
  }
  return "";
}

double Recall(const std::vector<Neighbor>& got,
              const std::vector<Neighbor>& want) {
  if (want.empty()) return 1.0;
  std::unordered_set<PointId> ids;
  for (const Neighbor& n : got) ids.insert(n.id);
  size_t found = 0;
  for (const Neighbor& n : want) found += ids.count(n.id);
  return double(found) / double(want.size());
}

std::string CheckSweep(const semtree::BatchDetectionReport& report,
                       const std::vector<semtree::InconsistentPair>& exact,
                       double* recall) {
  const std::set<semtree::InconsistentPair> truth(exact.begin(),
                                                  exact.end());
  std::set<semtree::InconsistentPair> swept;
  for (const semtree::InconsistentPair& p : report.detected) {
    if (truth.count(p) == 0) {
      return "sweep reports pair (" + std::to_string(p.a) + ", " +
             std::to_string(p.b) + ") that the exact scan does not hold";
    }
    if (!swept.insert(p).second) {
      return "sweep reports pair (" + std::to_string(p.a) + ", " +
             std::to_string(p.b) + ") twice";
    }
  }
  *recall = truth.empty() ? 1.0 : double(swept.size()) / double(truth.size());
  if (report.true_pairs != truth.size()) {
    return CheckCount("sweep ground-truth pairs", report.true_pairs,
                      truth.size());
  }
  if (std::abs(report.recall - *recall) > 1e-12) {
    return "sweep reports recall " + std::to_string(report.recall) +
           ", recomputed " + std::to_string(*recall);
  }
  return "";
}

std::string CheckCount(const char* what, size_t got, size_t want) {
  if (got == want) return "";
  return std::string(what) + ": program reports " + std::to_string(got) +
         ", ledger holds " + std::to_string(want);
}

std::string CheckDistance(const char* what, double got, double want) {
  if (Near(got, want)) return "";
  return std::string(what) + ": program reports " + std::to_string(got) +
         ", recomputed " + std::to_string(want);
}

}  // namespace perfbench
