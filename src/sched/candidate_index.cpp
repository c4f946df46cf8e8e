#include "sched/candidate_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace tracon::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double sq_dist(const double* a, const double* b, std::size_t dims) {
  double d = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    double diff = a[j] - b[j];
    d += diff * diff;
  }
  return d;
}

}  // namespace

ClassClustering ClassClustering::build(const Predictor& predictor,
                                       std::size_t num_clusters) {
  const std::size_t n = predictor.num_apps();
  TRACON_REQUIRE(n > 0, "clustering needs at least one app class");

  // Auto cluster count: smallest C with C*C >= n (≈ sqrt) — enough
  // clusters that both the per-cluster lists and the cluster loop stay
  // ~sqrt(n) long.
  std::size_t C = num_clusters;
  if (C == 0) {
    C = 1;
    while (C * C < n) ++C;
  }
  C = std::min(C, n);

  ClassClustering out;
  out.num_clusters_ = C;
  out.cluster_of_.assign(n, 0);
  if (C == 1) return out;
  if (C == n) {
    for (std::size_t a = 0; a < n; ++a) out.cluster_of_[a] = a;
    return out;
  }

  // Interference profile of class a (row a of `x`): how it performs
  // next to everyone (rows of the prediction tables) and how everyone
  // performs next to it (columns) — both responses, each column
  // standardized so neither response's scale dominates the distances.
  // No projection: any clustering keeps placements exact, so a PCA
  // would only refine which entries a lookup probes, at an
  // eigen-solve's cost on every index construction.
  const std::size_t dims = 4 * n + 2;
  std::vector<double> x(n * dims);
  for (std::size_t a = 0; a < n; ++a) {
    double* row = &x[a * dims];
    for (std::size_t j = 0; j < n; ++j)
      *row++ = predictor.predict_runtime(a, j);
    *row++ = predictor.predict_runtime(a, std::nullopt);
    for (std::size_t j = 0; j < n; ++j) *row++ = predictor.predict_iops(a, j);
    *row++ = predictor.predict_iops(a, std::nullopt);
    for (std::size_t j = 0; j < n; ++j)
      *row++ = predictor.predict_runtime(j, a);
    for (std::size_t j = 0; j < n; ++j) *row++ = predictor.predict_iops(j, a);
  }
  const double count = static_cast<double>(n);
  for (std::size_t j = 0; j < dims; ++j) {
    double mean = 0.0;
    for (std::size_t a = 0; a < n; ++a) mean += x[a * dims + j];
    mean /= count;
    double var = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      const double d = x[a * dims + j] - mean;
      var += d * d;
    }
    const double sd = std::sqrt(var / count);
    for (std::size_t a = 0; a < n; ++a)
      x[a * dims + j] = sd > 0.0 ? (x[a * dims + j] - mean) / sd : 0.0;
  }
  auto point = [&](std::size_t a) { return &x[a * dims]; };

  // Deterministic farthest-point seeding: class 0 first, then the
  // class farthest from every chosen seed (ties -> lowest index).
  std::vector<std::size_t> seeds{0};
  std::vector<double> mind(n, kInf);
  while (seeds.size() < C) {
    const double* last = point(seeds.back());
    for (std::size_t a = 0; a < n; ++a)
      mind[a] = std::min(mind[a], sq_dist(point(a), last, dims));
    std::size_t far = 0;
    double far_d = -1.0;
    for (std::size_t a = 0; a < n; ++a) {
      if (mind[a] > far_d) {
        far_d = mind[a];
        far = a;
      }
    }
    seeds.push_back(far);
    mind[far] = -1.0;  // never re-chosen
  }

  // Fixed-iteration Lloyd refinement, all ties toward the lower index:
  // every step is a pure function of the prediction tables.
  std::vector<double> centroids(C * dims);
  for (std::size_t c = 0; c < C; ++c)
    std::copy_n(point(seeds[c]), dims, &centroids[c * dims]);
  std::vector<std::size_t>& assign = out.cluster_of_;
  std::vector<std::size_t> members(C);
  for (int iter = 0; iter < 10; ++iter) {
    for (std::size_t a = 0; a < n; ++a) {
      std::size_t best = 0;
      double best_d = kInf;
      for (std::size_t c = 0; c < C; ++c) {
        double d = sq_dist(point(a), &centroids[c * dims], dims);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      assign[a] = best;
    }
    std::fill(members.begin(), members.end(), 0);
    for (std::size_t a = 0; a < n; ++a) ++members[assign[a]];
    for (std::size_t c = 0; c < C; ++c) {
      if (members[c] == 0) continue;  // empty cluster keeps its centroid
      double* centroid = &centroids[c * dims];
      std::fill_n(centroid, dims, 0.0);
      for (std::size_t a = 0; a < n; ++a) {
        if (assign[a] != c) continue;
        for (std::size_t j = 0; j < dims; ++j) centroid[j] += point(a)[j];
      }
      for (std::size_t j = 0; j < dims; ++j)
        centroid[j] /= static_cast<double>(members[c]);
    }
  }
  return out;
}

CandidateIndex::CandidateIndex(const Predictor& predictor,
                               Objective objective, std::size_t num_clusters)
    : predictor_(predictor),
      objective_(objective),
      clustering_(ClassClustering::build(predictor, num_clusters)) {
  const std::size_t n = predictor.num_apps();
  const std::size_t C = clustering_.num_clusters();
  TRACON_REQUIRE(n < std::numeric_limits<std::uint32_t>::max(),
                 "too many application classes for the candidate index");
  // Counting sort of the classes by cluster: the same layout serves
  // every task's block.
  cluster_start_.assign(C + 2, 0);
  for (std::size_t c : clustering_.cluster_of()) ++cluster_start_[c + 1];
  for (std::size_t c = 0; c < C; ++c)
    cluster_start_[c + 1] += cluster_start_[c];
  cluster_start_[C + 1] = static_cast<std::uint32_t>(n + 1);
  std::vector<std::uint32_t> next(cluster_start_.begin(),
                                  cluster_start_.begin() + C);
  slot_of_.resize(n);
  for (std::size_t a = 0; a < n; ++a)
    slot_of_[a] = next[clustering_.cluster_of()[a]]++;
  entries_.resize(n * (n + 1));
  epoch_ = predictor_.model_epoch();
  rebuild();
}

void CandidateIndex::attach(ClusterCounts* counts) const {
  TRACON_REQUIRE(counts != nullptr, "attach requires a ClusterCounts");
  counts->attach_clusters(clustering_.cluster_of(),
                          clustering_.num_clusters());
}

void CandidateIndex::sync_epoch() const {
  const std::uint64_t e = predictor_.model_epoch();
  if (e == epoch_) return;
  epoch_ = e;
  ++rebuilds_;
  rebuild();
}

void CandidateIndex::rebuild() const {
  const std::size_t n = predictor_.num_apps();
  const std::size_t C = clustering_.num_clusters();
  const std::size_t row = n + 1;
  // One batched call covers the objective's whole table for the epoch,
  // task-major with the idle neighbour last in each row (the batch API
  // returns the scalar calls' values bit for bit).
  std::vector<PredictQuery> queries(n * row);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t a = 0; a < n; ++a) queries[t * row + a] = {t, a};
    queries[t * row + n] = {t, std::nullopt};
  }
  std::vector<double> p(n * row);
  const bool runtime = objective_ == Objective::kRuntime;
  if (runtime) {
    predictor_.predict_runtime_batch(queries, p);
  } else {
    predictor_.predict_iops_batch(queries, p);
  }

  for (std::size_t t = 0; t < n; ++t) {
    Entry* block = &entries_[t * row];
    const double t_solo = p[t * row + n];
    // Empty-machine pseudo-cluster entry: rank 0, always admissible (the
    // join policy never applies to an idle neighbour). The IOPS
    // objective maximizes, so its score is the negated prediction.
    block[n] = {runtime ? t_solo : -t_solo, kInf, 1.0, 0};
    for (std::size_t a = 0; a < n; ++a) {
      const double t_pair = p[t * row + a];  // the task next to a
      const double n_solo = p[a * row + n];  // a alone
      const double n_pair = p[a * row + t];  // a next to the task
      Entry& e = block[slot_of_[a]];
      e.rank = static_cast<std::uint32_t>(a + 1);
      // join_lhs/join_scale reproduce the exact scan's beneficial-join
      // arithmetic: beneficial at margin m iff join_lhs > m * join_scale
      // (scale 1 for runtime, and m * 1.0 == m exactly).
      if (runtime) {
        e.score = t_pair;
        e.join_lhs = -kInf;  // the exact path rejects this join
        if (t_pair > 0.0 && n_pair > 0.0) {
          const double gained = t_solo / t_pair;
          const double lost = 1.0 - n_solo / n_pair;
          e.join_lhs = gained - lost;
        }
        e.join_scale = 1.0;
      } else {
        e.score = -t_pair;
        e.join_lhs = t_pair - (n_solo - n_pair);
        e.join_scale = std::max(n_solo, 1e-9);
      }
    }
    for (std::size_t c = 0; c < C; ++c) {
      std::sort(block + cluster_start_[c], block + cluster_start_[c + 1],
                [](const Entry& x, const Entry& y) {
                  return x.score < y.score ||
                         (x.score == y.score && x.rank < y.rank);
                });
    }
  }
}

std::optional<std::optional<std::size_t>> CandidateIndex::best_slot(
    std::size_t task, const ClusterCounts& cluster,
    const PlacementPolicy& policy, bool exclude_empty) const {
  sync_epoch();
  TRACON_REQUIRE(task < clustering_.num_apps(), "task class out of range");
  TRACON_REQUIRE(cluster.clustered() &&
                     cluster.num_clusters() == clustering_.num_clusters(),
                 "ClusterCounts is not attached to this index's clustering");
  const std::size_t C = clustering_.num_clusters();
  const std::size_t row = clustering_.num_apps() + 1;
  const Entry* block = &entries_[task * row];

  // Each cluster's champion is its first available (and beneficial)
  // entry in (score, rank) order; the winner is the lexicographic
  // minimum over champions — exactly the flat scan's argmin with
  // first-wins ties in canonical order.
  const Entry* best = nullptr;
  for (std::size_t c = 0; c <= C; ++c) {
    if (cluster.cluster_avail(c) == 0) continue;
    if (c == C && exclude_empty) continue;
    const Entry* end = block + cluster_start_[c + 1];
    for (const Entry* e = block + cluster_start_[c]; e != end; ++e) {
      if (e->rank != 0) {
        if (cluster.half_busy(e->rank - 1) == 0) continue;
        if (policy.beneficial_joins_only &&
            !(e->join_lhs > policy.join_margin * e->join_scale))
          continue;
      }
      if (best == nullptr || e->score < best->score ||
          (e->score == best->score && e->rank < best->rank))
        best = e;
      break;
    }
  }

  std::optional<std::optional<std::size_t>> out;
  if (best != nullptr) {
    out.emplace(best->rank == 0
                    ? std::optional<std::size_t>{}
                    : std::optional<std::size_t>{best->rank - 1});
  } else if (exclude_empty && cluster.has_slot(std::nullopt)) {
    // Last resort: no occupied machine offers a beneficial join.
    out.emplace(std::optional<std::size_t>{});
  }
  return out;
}

}  // namespace tracon::sched
