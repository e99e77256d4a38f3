// Answer checks of the SemTree benchmark. Every workload verifies the
// program's outputs through these functions, computing its own
// reference answers by brute force; none of them calls into an index.
// Each check returns an empty string when the answer is right and a
// one-line description of the first mismatch otherwise.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/point.h"
#include "reqverify/batch_detector.h"

namespace perfbench {

using semtree::Neighbor;
using semtree::PointId;

/// Relative tolerance for reported distances against recomputed ones.
inline constexpr double kDistanceTolerance = 1e-9;

/// Coordinates of a point by id, or nullptr when the id was never
/// stored (a reported id the benchmark cannot account for).
using CoordsOf = std::function<const double*(PointId)>;

/// Euclidean distance, computed independently of core/kernels.h.
double L2(const double* a, const double* b, size_t dims);

/// Points in one flat row-major block, for brute-force references.
struct FlatPoints {
  size_t dims = 0;
  std::vector<double> rows;  ///< ids.size() * dims values.
  std::vector<PointId> ids;
};

/// The k nearest points by (distance, id), computed by a full scan.
std::vector<Neighbor> BruteKnn(const FlatPoints& points, const double* query,
                               size_t k);

/// Every point within `radius` by (distance, id), by a full scan.
std::vector<Neighbor> BruteRange(const FlatPoints& points,
                                 const double* query, double radius);

/// Shape of any answer, exact or budgeted: at most `max_size` hits,
/// sorted by (distance, id), no id twice, and each hit's distance the
/// true distance from `query` to a point `coords` knows. A range
/// answer also passes `radius`; no hit may lie beyond it.
std::string CheckAnswerShape(const std::vector<Neighbor>& got,
                             const double* query, size_t dims,
                             const CoordsOf& coords, size_t max_size,
                             double radius = -1.0);

/// An exact k-NN answer against the brute-force one: the same length,
/// the same distances position by position, and every reference member
/// strictly nearer than the k-th distance present (members tied at the
/// k-th distance may differ).
std::string CompareKnn(const std::vector<Neighbor>& got,
                       const std::vector<Neighbor>& want);

/// An exact range answer against the brute-force one at `radius`:
/// every reference member present, nothing else, except points whose
/// distance lies within the tolerance of the radius itself.
std::string CompareRange(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want, double radius);

/// Share of `want`'s ids that `got` holds (recall@|want|); 1 when
/// `want` is empty.
double Recall(const std::vector<Neighbor>& got,
              const std::vector<Neighbor>& want);

/// The inconsistency sweep against the index-free exact scan: every
/// swept pair must be a true pair, the reported ground-truth size must
/// be the scan's, and the reported recall must be the share of true
/// pairs swept. `recall` receives the recomputed share.
std::string CheckSweep(const semtree::BatchDetectionReport& report,
                       const std::vector<semtree::InconsistentPair>& exact,
                       double* recall);

/// A count the program reports against the benchmark's own ledger.
std::string CheckCount(const char* what, size_t got, size_t want);

/// A distance the program reports against a fresh computation.
std::string CheckDistance(const char* what, double got, double want);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
