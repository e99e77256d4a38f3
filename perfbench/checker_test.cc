// Test of the benchmark's own answer checks: right answers pass, and a
// swapped neighbour, a missing range member, a spurious sweep pair or a
// miscounted live set each fail. A run fails when any check does, so
// each of these faults fails the run.
//
//   cmake --build .bench_build/perfbench --target perfbench_checker_test
//   ctest --test-dir .bench_build/perfbench

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

int failures = 0;

void ExpectPass(const char* name, const std::string& result) {
  if (!result.empty()) {
    std::printf("FAIL %s: right answer rejected: %s\n", name, result.c_str());
    ++failures;
  } else {
    std::printf("ok   %s\n", name);
  }
}

void ExpectFail(const char* name, const std::string& result) {
  if (result.empty()) {
    std::printf("FAIL %s: wrong answer accepted\n", name);
    ++failures;
  } else {
    std::printf("ok   %s (%s)\n", name, result.c_str());
  }
}

// Points 0..9 on a line: point i sits at (i, 0).
perfbench::FlatPoints Line() {
  perfbench::FlatPoints p;
  p.dims = 2;
  for (uint64_t i = 0; i < 10; ++i) {
    p.rows.push_back(double(i));
    p.rows.push_back(0.0);
    p.ids.push_back(i);
  }
  return p;
}

}  // namespace

int main() {
  using perfbench::Neighbor;
  const perfbench::FlatPoints points = Line();
  const perfbench::CoordsOf coords = [&](semtree::PointId id) {
    return id < points.ids.size() ? points.rows.data() + id * points.dims
                                  : nullptr;
  };
  const double query[2] = {2.2, 0.0};

  // k-NN.
  const std::vector<Neighbor> knn = perfbench::BruteKnn(points, query, 3);
  ExpectPass("knn shape",
             perfbench::CheckAnswerShape(knn, query, 2, coords, 3));
  ExpectPass("knn equals brute force", perfbench::CompareKnn(knn, knn));
  std::vector<Neighbor> swapped = knn;
  std::swap(swapped[0], swapped[1]);
  ExpectFail("swapped neighbour (order)",
             perfbench::CheckAnswerShape(swapped, query, 2, coords, 3));
  std::vector<Neighbor> replaced = knn;
  replaced[1].id = 7;  // Same distance slot, another point.
  ExpectFail("swapped neighbour (wrong point)",
             perfbench::CheckAnswerShape(replaced, query, 2, coords, 3));
  std::vector<Neighbor> farther = knn;
  farther[2] = {5, 2.8};  // True distance, but not among the 3 nearest.
  ExpectPass("farther neighbour has a true distance",
             perfbench::CheckAnswerShape(farther, query, 2, coords, 3));
  ExpectFail("farther neighbour against brute force",
             perfbench::CompareKnn(farther, knn));
  std::vector<Neighbor> duplicated = {knn[0], knn[0]};
  ExpectFail("duplicate neighbour",
             perfbench::CheckAnswerShape(duplicated, query, 2, coords, 3));
  std::vector<Neighbor> unknown = knn;
  unknown[2].id = 42;
  ExpectFail("unknown id",
             perfbench::CheckAnswerShape(unknown, query, 2, coords, 3));

  // Range.
  const double radius = 1.5;
  const std::vector<Neighbor> range =
      perfbench::BruteRange(points, query, radius);
  ExpectPass("range equals brute force",
             perfbench::CompareRange(range, range, radius));
  std::vector<Neighbor> missing = range;
  missing.erase(missing.begin() + 1);
  ExpectFail("missing range member",
             perfbench::CompareRange(missing, range, radius));
  std::vector<Neighbor> extra = range;
  extra.push_back({6, 3.8});
  ExpectFail("range non-member",
             perfbench::CompareRange(extra, range, radius));
  ExpectFail("range hit outside the radius",
             perfbench::CheckAnswerShape(extra, query, 2, coords, SIZE_MAX,
                                         radius));

  // Inconsistency sweep against the exact scan.
  const std::vector<semtree::InconsistentPair> exact = {{1, 2}, {3, 9}, {4, 5}};
  semtree::BatchDetectionReport sweep;
  sweep.detected = {{1, 2}, {4, 5}};
  sweep.true_pairs = 3;
  sweep.recall = 2.0 / 3.0;
  double recall = 0.0;
  ExpectPass("sweep subset of exact scan",
             perfbench::CheckSweep(sweep, exact, &recall));
  semtree::BatchDetectionReport spurious = sweep;
  spurious.detected.push_back({2, 7});
  ExpectFail("spurious sweep pair",
             perfbench::CheckSweep(spurious, exact, &recall));
  semtree::BatchDetectionReport overstated = sweep;
  overstated.recall = 1.0;
  ExpectFail("overstated sweep recall",
             perfbench::CheckSweep(overstated, exact, &recall));

  // Live set.
  ExpectPass("live set matches", perfbench::CheckCount("size", 30012, 30012));
  ExpectFail("miscounted live set",
             perfbench::CheckCount("size", 30011, 30012));

  // Semantic distance.
  ExpectFail("semantic distance off",
             perfbench::CheckDistance("eq1", 0.5, 0.5001));

  std::printf(failures == 0 ? "all checks behave\n" : "%d checks misbehave\n",
              failures);
  return failures == 0 ? 0 : 1;
}
