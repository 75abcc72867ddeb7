#include "discord/discord.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/trace.h"
#include "discord/mass.h"

namespace triad::discord {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Shared per-length context: the amortization context (series + prefix sums
// + cached spectrum), the length, and its rolling stats. Constructed once
// per length and shared across every r-halving retry, so the O(n) stats
// derivation and the series-side FFT are not redone per restart
// (ARCHITECTURE.md §7).
struct LengthContext {
  const MassContext& mass;
  int64_t m;
  int64_t count;  // number of subsequences
  RollingStats stats;

  const std::vector<double>& series() const { return mass.series(); }
  const double* Sub(int64_t i) const { return series().data() + i; }
  double MeanAt(int64_t i) const { return stats.mean[static_cast<size_t>(i)]; }
  double StdAt(int64_t i) const { return stats.stddev[static_cast<size_t>(i)]; }

  // `ops` accumulates pointwise work into a caller-owned counter so that
  // concurrent scans never share a counter (each parallel chunk sums into
  // its own local and the partials are combined in chunk order).
  double Distance(int64_t i, int64_t j, double best_so_far,
                  int64_t* ops) const {
    *ops += m;
    return ZNormDistanceEarlyAbandon(Sub(i), MeanAt(i), StdAt(i), Sub(j),
                                     MeanAt(j), StdAt(j), m, best_so_far);
  }
};

LengthContext MakeLengthContext(const MassContext& mass, int64_t m) {
  return LengthContext{mass, m, mass.size() - m + 1, mass.Stats(m)};
}

// Reference-point index shared by one length's whole r-halving search:
// d_ref is the MASS profile of the first subsequence (one amortized FFT
// profile per length), used two ways —
//   * phase 1 prunes distance calls with the triangle-inequality lower
//     bound |d_ref[i] - d_ref[c]| <= d(i, c) (z-normalized Euclidean
//     distance is a metric);
//   * Orchard phase 2 orders each candidate's comparisons by that same
//     bound so most of them abandon immediately.
// Built lazily on the first DRAG attempt of a length and reused across all
// retries (the index depends only on the length, not on r).
struct RefIndex {
  std::vector<double> d_ref;   // reference distances from subsequence 0
  std::vector<int64_t> order;  // subsequences sorted by d_ref
  std::vector<int64_t> rank;   // inverse permutation of order
};

RefIndex BuildRefIndex(const LengthContext& ctx) {
  RefIndex idx;
  idx.d_ref.resize(static_cast<size_t>(ctx.count));
  // The context's stats are the hoisted Stats(m); passing them in avoids
  // re-deriving them per profile.
  ctx.mass.DistanceProfileInto(ctx.Sub(0), ctx.m, ctx.stats,
                               idx.d_ref.data());
  idx.order.resize(static_cast<size_t>(ctx.count));
  for (int64_t i = 0; i < ctx.count; ++i) {
    idx.order[static_cast<size_t>(i)] = i;
  }
  std::sort(idx.order.begin(), idx.order.end(), [&](int64_t a, int64_t b) {
    return idx.d_ref[static_cast<size_t>(a)] < idx.d_ref[static_cast<size_t>(b)];
  });
  idx.rank.resize(static_cast<size_t>(ctx.count));
  for (int64_t i = 0; i < ctx.count; ++i) {
    idx.rank[static_cast<size_t>(idx.order[static_cast<size_t>(i)])] = i;
  }
  return idx;
}

// Per-candidate refinement outcome plus the work it cost; the unit of
// reduction for the parallel phase-2 scans.
struct Phase2Partial {
  Discord best;
  int64_t ops = 0;
};

Phase2Partial CombinePhase2(Phase2Partial acc, Phase2Partial next) {
  acc.ops += next.ops;
  // Strictly-greater keeps the earliest candidate on ties, matching a
  // serial in-order scan.
  if (next.best.distance > acc.best.distance) acc.best = next.best;
  return acc;
}

Phase2Partial EmptyPhase2(int64_t m) {
  Phase2Partial p;
  p.best.length = m;
  p.best.distance = -kInf;
  return p;
}

// DRAG phase 1: prune to a candidate set whose members *may* have
// NN distance >= r. Inherently sequential (the candidate list evolves as
// the scan advances), but cheap relative to phase 2.
//
// The lower-bound skip leaves the candidate set bit-identical to the
// unpruned scan: eliminating a pair requires a computed d < r, and
// whenever |d_ref[i] - d_ref[c]| >= r the true distance satisfies
// d(i, c) >= r, so the skipped call could never have eliminated anything.
// (Early abandoning already guarantees the same property for computed
// distances: an abandoned call returns a value > r only when the exact
// distance also exceeds r.) Infinite d_ref entries are safe: inf - inf
// gives NaN, the comparison is false, and the pair falls through to the
// computed distance.
std::vector<int64_t> DragPhase1(const LengthContext& ctx, const RefIndex& idx,
                                double r, int64_t* ops) {
  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < ctx.count; ++i) {
    const double i_ref = idx.d_ref[static_cast<size_t>(i)];
    bool is_candidate = true;
    for (size_t ci = 0; ci < candidates.size();) {
      const int64_t c = candidates[ci];
      if (std::llabs(i - c) < ctx.m) {  // trivial match, keep both
        ++ci;
        continue;
      }
      if (std::abs(i_ref - idx.d_ref[static_cast<size_t>(c)]) >= r) {
        ++ci;  // d(i, c) >= r: this pair cannot eliminate anything
        continue;
      }
      const double d = ctx.Distance(i, c, r, ops);
      if (d < r) {
        // Both i and c have a neighbour within r: neither can be a discord.
        candidates[ci] = candidates.back();
        candidates.pop_back();
        is_candidate = false;
      } else {
        ++ci;
      }
    }
    if (is_candidate) candidates.push_back(i);
  }
  return candidates;
}

// Exact NN refinement of a single candidate, linear-scan variant with early
// abandoning. Self-contained, so candidates can be refined concurrently.
//
// The reference-point skip is result-preserving: when
// |d_ref[j] - d_ref[c]| >= nn the true distance satisfies d(c, j) >= nn,
// so the call could neither lower the running NN nor trigger the nn < r
// failure; NaN bounds (inf - inf) compare false and fall through to the
// computed distance, exactly as in phase 1.
Phase2Partial RefineCandidateLinear(const LengthContext& ctx,
                                    const RefIndex& idx, int64_t c,
                                    double r) {
  Phase2Partial out = EmptyPhase2(ctx.m);
  double nn = kInf;
  bool failed = false;
  const double c_ref = idx.d_ref[static_cast<size_t>(c)];
  for (int64_t j = 0; j < ctx.count; ++j) {
    if (std::llabs(j - c) < ctx.m) continue;
    if (std::abs(idx.d_ref[static_cast<size_t>(j)] - c_ref) >= nn) continue;
    const double d = ctx.Distance(c, j, std::min(nn, kInf), &out.ops);
    nn = std::min(nn, d);
    if (nn < r) {
      failed = true;
      break;
    }
  }
  if (!failed && nn >= r && std::isfinite(nn)) {
    out.best.position = c;
    out.best.distance = nn;
  }
  return out;
}

// DRAG phase 2, linear scan variant: exact NN distance per candidate with
// early abandoning; candidates whose NN drops below r are discarded. The
// per-candidate scans are independent, so they fan out across the pool;
// the reduction is ordered, so the result (including the ops counter) is
// identical at every thread count.
Phase2Partial DragPhase2Linear(const LengthContext& ctx,
                               const RefIndex& idx,
                               const std::vector<int64_t>& candidates,
                               double r) {
  return ParallelMapReduce(
      int64_t{0}, static_cast<int64_t>(candidates.size()), /*grain=*/1,
      EmptyPhase2(ctx.m),
      [&](int64_t b, int64_t e) {
        Phase2Partial acc = EmptyPhase2(ctx.m);
        for (int64_t k = b; k < e; ++k) {
          acc = CombinePhase2(
              std::move(acc),
              RefineCandidateLinear(ctx, idx,
                                    candidates[static_cast<size_t>(k)], r));
        }
        return acc;
      },
      CombinePhase2);
}

// Orchard-style refinement of one candidate: comparisons ordered by the
// reference-point lower bound |d_ref(j) - d_ref(c)| <= d(c, j); the walk
// stops as soon as the lower bound exceeds the current NN. Exact, usually
// far fewer ops than the linear scan.
Phase2Partial RefineCandidateOrchard(const LengthContext& ctx,
                                     const RefIndex& idx, int64_t c,
                                     double r) {
  Phase2Partial out = EmptyPhase2(ctx.m);
  double nn = kInf;
  bool failed = false;
  // Walk outward from c's rank: two-pointer over the sorted order gives
  // non-decreasing lower bounds.
  int64_t lo = idx.rank[static_cast<size_t>(c)];
  int64_t hi = lo + 1;
  const double c_ref = idx.d_ref[static_cast<size_t>(c)];
  while (lo >= 0 || hi < ctx.count) {
    int64_t pick;
    double lb_lo = kInf, lb_hi = kInf;
    if (lo >= 0) {
      lb_lo = std::abs(
          idx.d_ref[static_cast<size_t>(idx.order[static_cast<size_t>(lo)])] -
          c_ref);
    }
    if (hi < ctx.count) {
      lb_hi = std::abs(
          idx.d_ref[static_cast<size_t>(idx.order[static_cast<size_t>(hi)])] -
          c_ref);
    }
    if (lb_lo <= lb_hi) {
      pick = idx.order[static_cast<size_t>(lo)];
      --lo;
    } else {
      pick = idx.order[static_cast<size_t>(hi)];
      ++hi;
    }
    const double lb = std::min(lb_lo, lb_hi);
    if (lb > nn) break;  // no remaining point can improve the NN
    if (std::llabs(pick - c) < ctx.m) continue;
    const double d = ctx.Distance(c, pick, nn, &out.ops);
    nn = std::min(nn, d);
    if (nn < r) {
      failed = true;
      break;
    }
  }
  if (!failed && nn >= r && std::isfinite(nn)) {
    out.best.position = c;
    out.best.distance = nn;
  }
  return out;
}

Phase2Partial DragPhase2Orchard(const LengthContext& ctx,
                                const RefIndex& idx,
                                const std::vector<int64_t>& candidates,
                                double r) {
  return ParallelMapReduce(
      int64_t{0}, static_cast<int64_t>(candidates.size()), /*grain=*/1,
      EmptyPhase2(ctx.m),
      [&](int64_t b, int64_t e) {
        Phase2Partial acc = EmptyPhase2(ctx.m);
        for (int64_t k = b; k < e; ++k) {
          acc = CombinePhase2(
              std::move(acc),
              RefineCandidateOrchard(ctx, idx,
                                     candidates[static_cast<size_t>(k)], r));
        }
        return acc;
      },
      CombinePhase2);
}

enum class Phase2 { kLinear, kOrchard };

// Lazily builds the per-length reference index (one MASS profile, counted
// once) and returns it; every retry of the same length reuses the built
// index.
const RefIndex& EnsureRefIndex(const LengthContext& ctx,
                               std::optional<RefIndex>* index,
                               DiscordStats* stats) {
  if (!index->has_value()) {
    *index = BuildRefIndex(ctx);
    if (stats != nullptr) stats->distance_profiles += 1;
  }
  return **index;
}

// One DRAG attempt at range r. `index` is the length's lazily-built
// reference index: the first attempt constructs it (one MASS profile),
// later retries at lower r reuse it. Callers validate m against the series
// before building the LengthContext.
std::optional<Discord> RunDrag(const LengthContext& ctx, double r,
                               Phase2 phase2, std::optional<RefIndex>* index,
                               DiscordStats* stats) {
  const RefIndex& idx = EnsureRefIndex(ctx, index, stats);
  int64_t phase1_ops = 0;
  std::vector<int64_t> candidates = DragPhase1(ctx, idx, r, &phase1_ops);
  if (stats != nullptr) {
    stats->pointwise_distance_ops += phase1_ops;
    stats->candidates_after_phase1 += static_cast<int64_t>(candidates.size());
  }
  if (candidates.empty()) return std::nullopt;

  Phase2Partial refined;
  if (phase2 == Phase2::kLinear) {
    refined = DragPhase2Linear(ctx, idx, candidates, r);
  } else {
    refined = DragPhase2Orchard(ctx, idx, candidates, r);
  }
  if (stats != nullptr) stats->pointwise_distance_ops += refined.ops;
  if (refined.best.position < 0) return std::nullopt;
  return refined.best;
}

// Top discord of one length with an independent, deterministic range
// control: r starts at the z-norm distance ceiling 2*sqrt(m) and halves on
// every failed attempt. DRAG returns the *exact* top-1 discord whenever the
// range admits any candidate, so the discovered discord does not depend on
// the r trajectory — which is what makes the per-length searches
// independent and the length sweep parallelizable. (The serial MERLIN
// control loop instead predicts r from neighbouring lengths' distances;
// that prediction is only a work-saving heuristic, and dropping it trades
// a couple of extra halving restarts per length for length-level
// parallelism with bit-identical output at every thread count.)
struct LengthOutcome {
  std::optional<Discord> discord;
  DiscordStats stats;
  Status status = Status::OK();
};

LengthOutcome SearchOneLength(const MassContext& mass, int64_t m,
                              Phase2 phase2) {
  // One span per sweep length: with ~dozens of lengths per MERLIN call the
  // trace shows exactly which length regressed, not just "discord got slow".
  trace::TraceSpan length_span("merlin.length_search");
  static metrics::Counter* restarts_counter =
      metrics::Registry::Global().counter("merlin.restarts");
  constexpr int kMaxRetries = 400;
  LengthOutcome out;
  // Everything r-independent is hoisted out of the retry loop: the rolling
  // stats (LengthContext) and the reference index survive every restart.
  const LengthContext ctx = MakeLengthContext(mass, m);
  std::optional<RefIndex> index;
  const double r_cap = 2.0 * std::sqrt(static_cast<double>(m));
  const double r_start = std::clamp(r_cap, 1e-6, r_cap * 0.999);
  // Admissible-range floor: every subsequence's exact NN distance is a
  // lower bound on the top discord's NN distance d_top = max_i NN(i), and
  // DRAG at any admissible r <= d_top finds the exact top discord — the
  // window attaining the bound survives phase 1 (none of its distances
  // falls below its own NN) and refines to a finite value >= r, so an
  // attempt at r = bound cannot fail. The halving ladder therefore never
  // needs to step below the best such bound: when the next rung would,
  // trying the bound itself succeeds and is tighter (fewer phase-1
  // survivors, stronger phase-2 abandons) than the rung. Two bounds come
  // almost for free from the reference index:
  //   * NN(0), the non-trivial minimum of d_ref itself;
  //   * NN(i_far) for i_far = argmax d_ref — the window farthest from the
  //     reference is a natural discord candidate, so its NN tends to sit
  //     close to d_top. One extra amortized MASS profile per length.
  // With no finite bound (degenerate profiles) the plain ladder remains.
  double seed = kInf;
  {
    const RefIndex& idx = EnsureRefIndex(ctx, &index, &out.stats);
    double nn0 = kInf;
    for (int64_t j = m; j < ctx.count; ++j) {
      nn0 = std::min(nn0, idx.d_ref[static_cast<size_t>(j)]);
    }
    int64_t far = -1;
    double far_d = -1.0;
    for (int64_t i = 0; i < ctx.count; ++i) {
      const double d = idx.d_ref[static_cast<size_t>(i)];
      if (std::isfinite(d) && d > far_d) {
        far_d = d;
        far = i;
      }
    }
    double nn_far = kInf;
    if (far >= 0) {
      std::vector<double> far_profile(static_cast<size_t>(ctx.count));
      ctx.mass.DistanceProfileInto(ctx.Sub(far), m, ctx.stats,
                                   far_profile.data());
      out.stats.distance_profiles += 1;
      for (int64_t j = 0; j < ctx.count; ++j) {
        if (std::llabs(j - far) < m) continue;
        nn_far = std::min(nn_far, far_profile[static_cast<size_t>(j)]);
      }
    }
    for (double bound : {nn0, nn_far}) {
      if (std::isfinite(bound) && bound > 1e-9 &&
          (!std::isfinite(seed) || bound > seed)) {
        seed = bound;
      }
    }
  }
  double r = r_start;
  int retries = 0;
  while (retries < kMaxRetries) {
    std::optional<Discord> found = RunDrag(ctx, r, phase2, &index, &out.stats);
    if (found.has_value()) {
      out.discord = *found;
      return out;
    }
    ++out.stats.restarts;
    restarts_counter->Increment();
    ++retries;
    double next = r * 0.5;
    // Floor the ladder at the admissible bound: the attempt at the bound
    // itself cannot fail, and a tighter r means less phase-1/2 work than
    // any rung below it would cost. (Strict `seed < r` keeps the loop
    // halving normally if an attempt at the bound ever did fail.)
    if (std::isfinite(seed) && seed > next && seed < r) next = seed;
    r = next;
    if (r < 1e-9) break;
  }
  return out;
}

Result<MerlinResult> RunMerlin(const std::vector<double>& series,
                               int64_t min_length, int64_t max_length,
                               int64_t length_step, Phase2 phase2) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (min_length < 2 || min_length > max_length || length_step < 1) {
    return Status::InvalidArgument("invalid MERLIN length range");
  }
  if (2 * min_length > n) {
    return Status::InvalidArgument("series too short for MERLIN range");
  }
  trace::TraceSpan sweep_span("merlin.sweep");

  std::vector<int64_t> lengths;
  for (int64_t m = min_length; m <= max_length; m += length_step) {
    if (2 * m > n) break;  // longer lengths have no non-trivial match
    lengths.push_back(m);
  }

  // One amortization context for the whole sweep: the prefix sums serve
  // every length's rolling stats, and the padded series spectrum is shared
  // by every length whose padded power-of-two size coincides (for typical
  // sweeps that is all of them), so the series side of MASS is transformed
  // once rather than once per length.
  const MassContext mass(series);

  // Fan the per-length searches across the pool; fold the outcomes back in
  // ascending-length order so discords, counters, and error selection are
  // independent of the thread count. Nested parallel calls inside RunDrag
  // degrade gracefully to inline execution on the worker lanes.
  struct Accum {
    MerlinResult result;
    Status first_error = Status::OK();
  };
  Accum accum = ParallelMapReduce(
      int64_t{0}, static_cast<int64_t>(lengths.size()), /*grain=*/1, Accum{},
      [&](int64_t b, int64_t e) {
        Accum local;
        for (int64_t k = b; k < e; ++k) {
          // Cooperative deadline checkpoint, once per length: a sweep that
          // outlives its pass budget stops starting new lengths and
          // surfaces DeadlineExceeded through the usual error fold.
          Status deadline = CheckPassDeadline();
          if (!deadline.ok()) {
            if (local.first_error.ok()) local.first_error = deadline;
            break;
          }
          LengthOutcome one = SearchOneLength(
              mass, lengths[static_cast<size_t>(k)], phase2);
          if (!one.status.ok() && local.first_error.ok()) {
            local.first_error = one.status;
          }
          if (one.discord.has_value()) {
            local.result.discords.push_back(*one.discord);
          }
          local.result.stats.candidates_after_phase1 +=
              one.stats.candidates_after_phase1;
          local.result.stats.pointwise_distance_ops +=
              one.stats.pointwise_distance_ops;
          local.result.stats.distance_profiles += one.stats.distance_profiles;
          local.result.stats.restarts += one.stats.restarts;
        }
        return local;
      },
      [](Accum acc, Accum next) {
        if (acc.first_error.ok()) acc.first_error = next.first_error;
        acc.result.discords.insert(acc.result.discords.end(),
                                   next.result.discords.begin(),
                                   next.result.discords.end());
        acc.result.stats.candidates_after_phase1 +=
            next.result.stats.candidates_after_phase1;
        acc.result.stats.pointwise_distance_ops +=
            next.result.stats.pointwise_distance_ops;
        acc.result.stats.distance_profiles +=
            next.result.stats.distance_profiles;
        acc.result.stats.restarts += next.result.stats.restarts;
        return acc;
      });
  if (!accum.first_error.ok()) return accum.first_error;
  return accum.result;
}

// ---- ExactDiscords: one exact matrix-profile sweep per length ----

// Contiguous chunks the lengths of one search split into. More chunks
// balance a multi-lane search better (the short lengths cost the most);
// fewer repeat less of row 0's dot row, which each chunk sums from t = 0.
constexpr int64_t kLengthChunks = 8;

// Registered when a search starts, not on first increment, so exporters
// report both counters (zero-valued when nothing happened) once the
// detector has searched a region — the same reason mass.cc registers its
// spectrum pair from the MassContext constructor.
struct ExactCounters {
  metrics::Counter* confirm_rows =
      metrics::Registry::Global().counter("discord.confirm_rows");
  metrics::Counter* empty_lengths =
      metrics::Registry::Global().counter("discord.empty_lengths");
};

ExactCounters& ExactInstruments() {
  static ExactCounters c;
  return c;
}

// Region-wide inputs every length of one ExactDiscords call shares.
struct SweepRegion {
  explicit SweepRegion(const MassContext& series_mass) : mass(series_mass) {
    const std::vector<double>& t = mass.series();
    for (double v : t) center += v;
    center /= static_cast<double>(t.size());
    x.reserve(t.size() + 1);
    prefix.assign(1, 0.0);
    prefix_sq.assign(1, 0.0);
    for (double v : t) {
      const double xv = v - center;
      x.push_back(xv);
      x_max = std::max(x_max, std::abs(xv));
      abs_sum += std::abs(xv);
      prefix.push_back(prefix.back() + xv);
      prefix_sq.push_back(prefix_sq.back() + xv * xv);
    }
    x.push_back(0.0);
  }

  const MassContext& mass;  // the region T; Stats(m) of the distances
  double center = 0.0;      // c, the region mean
  std::vector<double> x;    // fl(T - c), plus one zero pad (see SweepLength)
  std::vector<double> prefix, prefix_sq;  // prefix sums of x and x^2
  double x_max = 0.0;       // max |x|
  double abs_sum = 0.0;     // sum |x|
};

// One chunk's working buffers (see ExactDiscords): sized for the chunk's
// first length, whose row count is the largest since lengths ascend, and
// reused by every later length, so a length allocates nothing. `seed` is
// the running sum of row 0's dot row, holding the terms t < seed_terms.
struct SweepBuffers {
  explicit SweepBuffers(int64_t count)
      : seed(static_cast<size_t>(count), 0.0),
        q(seed.size()),
        mu(seed.size()),
        sd(seed.size()),
        nu(seed.size()),
        inv(seed.size()),
        defect(seed.size()),
        best(seed.size()),
        col_max(seed.size()) {}

  int64_t seed_terms = 0;
  std::vector<double> seed;
  std::vector<double> q;        // the sweep's dot row, by diagonal
  std::vector<double> mu, sd;   // Stats(m), bit for bit
  std::vector<double> nu;       // mu - c
  std::vector<double> inv;      // 1/sd; NaN for a flat window
  std::vector<double> defect;   // the bound's Stats(m) term s_i (a)
  std::vector<double> best;     // row maxima, then the bound U
  std::vector<double> col_max;  // column maxima
};

// Exact NN distance of row i, unless it falls below `floor` (then any
// value < floor is returned: the row cannot be the top). `t_upper` must
// exceed the row's NN distance. The result is that of the scalar loop
//
//   for j ascending with |j - i| >= m:
//     limit = min(nn, t_upper)
//     if D(i, j, limit) < limit:
//       nn = min(nn, D(i, j, +inf)); stop if nn < floor
//
// with D = ZNormDistanceEarlyAbandon on Stats(m): a pair whose exact
// distance is below the limit returns a value below it (abandoned or not),
// so it is never skipped, and is then recomputed with no limit, so nn only
// ever holds exact values. simd::ZNormDistEarlyAbandon4 runs four columns
// at the limit taken before them, each lane D at that limit bit for bit,
// so each column's test is read off its lane; only a column whose limit
// moved within its batch (an earlier lane lowered nn below t_upper) runs
// again at its own limit. The loop's decisions, and where it stops, are
// therefore the scalar loop's.
double ConfirmRow(const double* t, const SweepBuffers& s, int64_t m,
                  int64_t count, int64_t i, double t_upper, double floor,
                  int64_t* ops) {
  const size_t si = static_cast<size_t>(i);
  const auto distance = [&](int64_t j, double limit) {
    *ops += m;
    const size_t sj = static_cast<size_t>(j);
    return ZNormDistanceEarlyAbandon(t + i, s.mu[si], s.sd[si], t + j,
                                     s.mu[sj], s.sd[sj], m, limit);
  };
  double nn = kInf;
  // The scalar loop's step at column j, given d = D(i, j, d_limit).
  const auto step = [&](int64_t j, double d, double d_limit) {
    const double limit = std::min(nn, t_upper);
    if (limit != d_limit) d = distance(j, limit);
    if (d < limit) nn = std::min(nn, distance(j, kInf));
    return nn < floor;
  };
  const int64_t segments[2][2] = {{0, i - m + 1}, {i + m, count}};
  for (const auto& [lo, hi] : segments) {
    int64_t j = lo;
    for (; j + 4 <= hi; j += 4) {
      const double limit = std::min(nn, t_upper);
      double d[4];
      simd::ZNormDistEarlyAbandon4(t + i, s.mu[si], s.inv[si], t + j,
                                   s.mu.data() + j, s.inv.data() + j, m,
                                   limit, d);
      *ops += 4 * m;
      for (int l = 0; l < 4; ++l) {
        if (step(j + l, d[l], limit)) return nn;
      }
    }
    for (; j < hi; ++j) {
      const double limit = std::min(nn, t_upper);
      if (step(j, distance(j, limit), limit)) return nn;
    }
  }
  return nn;
}

struct ExactOutcome {
  std::optional<Discord> discord;
  int64_t ops = 0;
};

// Top discord of one length. Three steps, all O(count) memory:
//
// 1. Sweep. On the centred series x = fl(T - c), row i's dot row is kept
//    by diagonal, q[k] = QT(i, i+k) for k >= m (the exclusion zone), and
//    simd::CorrRowMax ranks the row's cells by
//      rho~ = ((q[k]/m - nu_i nu_j) / sd_j) / sd_i,   nu = mu - c,
//    with (mu, sd) = Stats(m), folding them into row and column maxima,
//    then advances q to row i+1 in place. Row 0's dot row is a direct sum,
//    q[k] = sum_{t<m} x[t] x[k+t] with t ascending from 0.0, carried from
//    the chunk's previous length: that sum at m + step is the sum at m plus
//    the terms t in [m, m + step), added in the same order, so the running
//    sum repeats the direct one term for term. Every row i gets a best
//    correlation and b_i = 2m(1 - best).
//
// 2. Bound. Let D_ij be the direct distance (ZNormDistanceEarlyAbandon on
//    T and Stats(m)) and D*_ij its exact-real value. With z = (T - mu)/sd,
//      D*^2 = S_i + S_j - 2m rho*,   S_i = sum z_i^2,
//      rho* = C_ij / (m sd_i sd_j),  C_ij = sum (T_a - mu_i)(T_b - mu_j).
//    With exact window means mu' and variances sd'^2 (delta = mu' - mu):
//      S_i / m - 1 = (sd'_i^2 - sd_i^2 + delta_i^2) / sd_i^2          (a)
//      C_ij / m = QT(i,j)/m - nu_i nu_j - (nu_j delta_i + nu_i delta_j) (b)
//    where QT is on x (exact centring). u = 2^-53, g_n = n u / (1 - n u),
//    A = sum |x|, B = sum x^2, X = max |x|, V = max |nu|:
//    * Stats(m) error, measured: the centred series has its own prefix-sum
//      stats (mux, varx), accurate because x is small. Prefix sums are off
//      by <= g_n A (g_n B for squares), so mux and varx are off from the
//      exact stats of x by <= dmux = 2 g_n A/m + 2u|mux| and
//      dvarx = 2 g_n B/m + 5u(varx + mux^2) + dmux(2|mux| + dmux);
//      centring moved each sample by <= uX. Hence
//        |delta_i| <= dmu_i = |mux - nu_i| + dmux + uX
//                             + u(|nu_i| + |mux - nu_i|),
//        |sd'_i^2 - sd_i^2| <= |varx - sd_i^2| + dvarx
//                              + uX(2 sqrt(varx + dvarx) + uX)
//                              + 2u(varx + sd_i^2),
//      which bounds (a) by s_i. The differences measure the real error of
//      Stats(m), so a series far from zero (where Stats(m) is least
//      accurate) widens the bound only by that error.
//    * Dot rows, |q| <= mX^2: the seed sum is off by <= m u mX^2, each of
//      the R <= count row updates adds <= u X^2 (2m + 6), centring
//      x = fl(T - c) adds <= 3u mX^2. So |q~ - QT|/m <= u X^2 (m + 3 +
//      R (2 + 6/m)) = Eq.
//    * Correlation step: q/m, nu_i nu_j and the difference add
//      u(2X^2 + 3V^2); the mean term of (b) adds 2V max dmu; the two
//      1/sd products add 8u |rho|. So
//        |rho~ - rho*| <= G / (sd_i sd_j) + 8u(1 + s_max),
//        G = Eq + 2u X^2 + 3u V^2 + 2V max dmu.
//    * The direct formula's own rounding moves D^2 by
//      <= u m (1 + s_max)(4m + 48).
//    Summed, |D_ij^2 - b_ij| <= E_ij, and over the row's neighbours
//      |NN_i^2 - b_i| <= E_i = 2 [m (s_i + s_max)
//          + 2m (G inv_i inv_max + 8u (1 + s_max))
//          + u m (1 + s_max)(4m + 48) + 4u (|b_i| + 2m)],
//    inv = 1/sd, maxima over non-flat rows, the factor 2 absorbing
//    second-order terms. The test runs on squared distances, where the
//    bound applies directly; carrying it to distances with
//    |sqrt a - sqrt b| <= sqrt |a - b| would only loosen it. Inputs that
//    are badly conditioned for the sweep (near-flat windows, or an offset
//    so large that Stats(m) itself is off by much of the variance) get a
//    large E and re-score more rows; that costs time, never exactness.
//
// 3. Confirm. U_i = b_i + E_i bounds NN_i^2 from above. Rows are re-scored
//    exactly (ConfirmRow) in descending U order, and the scan stops at the
//    first U below the best confirmed distance squared (or below 1e-18:
//    NN < 1e-9 never reports), so only rows that could reach or tie the
//    top are re-scored. Ties go to the lowest position.
//
// Flat rows are never ranked: their NN is 0 or +inf, and a top below 1e-9
// reports nothing. Flat columns carry NaN in inv and drop out of every max.
// A non-flat row with no finite correlation has no finite NN.
//
// The per-row set-up (Stats(m), nu, inv and s_i) is one pass into `s`,
// whose buffers hold at least count entries; `s->seed` must hold row 0's
// dot row for a length <= m of the same chunk, or nothing yet.
ExactOutcome SweepLength(const SweepRegion& region, int64_t m,
                         SweepBuffers* s) {
  const int64_t n = region.mass.size();
  const int64_t count = n - m + 1;
  const double dm = static_cast<double>(m);
  const double u = std::numeric_limits<double>::epsilon() / 2.0;
  const double g_n =
      static_cast<double>(n) * u / (1.0 - static_cast<double>(n) * u);

  const double* prefix = region.mass.prefix();
  const double* prefix_sq = region.mass.prefix_sq();
  const double dmux_sums = 2.0 * g_n * region.abs_sum / dm;
  const double dvarx_sums = 2.0 * g_n * region.prefix_sq.back() / dm;
  const double x_u = u * region.x_max;
  double* const mu = s->mu.data();
  double* const sd = s->sd.data();
  double* const nu = s->nu.data();
  double* const inv = s->inv.data();
  double* const defect = s->defect.data();
  double nu_max = 0.0, inv_max = 0.0, defect_max = 0.0, dmu_max = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    WindowMoments(prefix, prefix_sq, i, m, &mu[i], &sd[i]);
    nu[i] = mu[i] - region.center;
    defect[i] = 0.0;
    if (sd[i] < 1e-12) {
      inv[i] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    inv[i] = 1.0 / sd[i];
    // The window stats of x, with Stats(m)'s arithmetic.
    const size_t end = static_cast<size_t>(i + m);
    const size_t si = static_cast<size_t>(i);
    const double mux = (region.prefix[end] - region.prefix[si]) / dm;
    const double varx = std::max(
        0.0, (region.prefix_sq[end] - region.prefix_sq[si]) / dm - mux * mux);
    const double dmux = dmux_sums + 2.0 * u * std::abs(mux);
    const double dvarx = dvarx_sums + 5.0 * u * (varx + mux * mux) +
                         dmux * (2.0 * std::abs(mux) + dmux);
    const double dmu = std::abs(mux - nu[i]) + dmux + x_u +
                       u * (std::abs(nu[i]) + std::abs(mux - nu[i]));
    const double dvar = std::abs(varx - sd[i] * sd[i]) + dvarx +
                        x_u * (2.0 * std::sqrt(varx + dvarx) + x_u) +
                        2.0 * u * (varx + sd[i] * sd[i]);
    defect[i] = (dvar + dmu * dmu) * inv[i] * inv[i];
    nu_max = std::max(nu_max, std::abs(nu[i]));
    inv_max = std::max(inv_max, inv[i]);
    defect_max = std::max(defect_max, defect[i]);
    dmu_max = std::max(dmu_max, dmu);
  }

  // Step 1: the sweep. q[k] for k in [m, count) is row 0's dot row; row i
  // owns q[m .. count-1-i]. The update for row i+1 reads x[i+k+m], one past
  // the series for the last cell, whose value is never used again — hence
  // the pad. The running seed only ever needs the entries of the current
  // length, whose range [m, count) shrinks as m grows.
  const double* x = region.x.data();
  double* const seed = s->seed.data();
  for (int64_t t = s->seed_terms; t < m; ++t) {
    const double xt = x[t];
    for (int64_t k = m; k < count; ++k) seed[k] += xt * x[k + t];
  }
  s->seed_terms = m;
  double* const q = s->q.data();
  std::copy(seed + m, seed + count, q + m);
  double* const best = s->best.data();
  double* const col_max = s->col_max.data();
  std::fill(best, best + count, -kInf);
  std::fill(col_max, col_max + count, -kInf);
  const double inv_m = 1.0 / dm;
  for (int64_t i = 0; i + m < count; ++i) {
    best[i] = simd::CorrRowMax(q + m, count - i - m, inv_m, nu[i], inv[i],
                               nu + i + m, inv + i + m, col_max + i + m, x[i],
                               x + i + m, x[i + m], x + i + 2 * m);
  }

  // Step 2: the per-row upper bound U_i on NN_i^2 (reusing `best`); -inf
  // marks rows that cannot report.
  const double x2 = region.x_max * region.x_max;
  const double eq = u * x2 *
                    (dm + 3.0 + static_cast<double>(count) * (2.0 + 6.0 / dm));
  const double g = eq + 2.0 * u * x2 + 3.0 * u * nu_max * nu_max +
                   2.0 * nu_max * dmu_max;
  const double rho_round = 8.0 * u * (1.0 + defect_max);
  const double direct = u * dm * (1.0 + defect_max) * (4.0 * dm + 48.0);
  double* const upper = best;
  for (int64_t i = 0; i < count; ++i) {
    const double corr = col_max[i] > best[i] ? col_max[i] : best[i];
    if (std::isnan(inv[i]) || corr == -kInf) {
      upper[i] = -kInf;
      continue;
    }
    const double b = 2.0 * dm * (1.0 - corr);
    const double e =
        2.0 * (dm * (defect[i] + defect_max) +
               2.0 * dm * (g * inv[i] * inv_max + rho_round) + direct +
               4.0 * u * (std::abs(b) + 2.0 * dm));
    // NaN only from overflow (inf - inf): then the row must be re-scored.
    upper[i] = std::isnan(b + e) ? kInf : b + e;
  }

  // Step 3: confirm in descending U order.
  constexpr double kMinDistance = 1e-9;
  const double* series = region.mass.series().data();
  ExactOutcome out;
  Discord top;
  top.length = m;
  top.distance = -kInf;
  while (true) {
    int64_t pick = -1;
    double pick_upper = -kInf;
    for (int64_t i = 0; i < count; ++i) {
      if (upper[i] > pick_upper) {
        pick_upper = upper[i];
        pick = i;
      }
    }
    if (pick < 0) break;
    const double floor = std::max(top.distance, kMinDistance);
    if (pick_upper < floor * floor * (1.0 - 4.0 * u)) break;
    upper[pick] = -kInf;
    ExactInstruments().confirm_rows->Increment();
    const double t_upper =
        std::sqrt(std::max(pick_upper, 0.0)) * (1.0 + 1e-12) + 1e-300;
    const double nn =
        ConfirmRow(series, *s, m, count, pick, t_upper, floor, &out.ops);
    if (!std::isfinite(nn) || nn < floor) continue;
    if (nn > top.distance || pick < top.position) {
      top.position = pick;
      top.distance = nn;
    }
  }
  if (top.position >= 0) {
    out.discord = top;
  } else {
    ExactInstruments().empty_lengths->Increment();
  }
  return out;
}

}  // namespace

Result<Discord> BruteForceDiscord(const std::vector<double>& series,
                                  int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (m < 2) return Status::InvalidArgument("discord length must be >= 2");
  if (2 * m > n) {
    return Status::InvalidArgument(
        "series too short for non-trivial matches at this length");
  }
  const std::vector<double> profile = MatrixProfileNaive(series, m);
  Discord best;
  best.length = m;
  best.distance = -kInf;
  for (size_t i = 0; i < profile.size(); ++i) {
    if (std::isfinite(profile[i]) && profile[i] > best.distance) {
      best.distance = profile[i];
      best.position = static_cast<int64_t>(i);
    }
  }
  if (best.position < 0) {
    return Status::Internal("matrix profile had no finite entries");
  }
  return best;
}

Result<std::optional<Discord>> DragDiscord(const std::vector<double>& series,
                                           int64_t m, double r,
                                           DiscordStats* stats) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (m < 2) return Status::InvalidArgument("discord length must be >= 2");
  if (2 * m > n) {
    return Status::InvalidArgument(
        "series too short for non-trivial matches at this length");
  }
  const MassContext mass(series);
  const LengthContext ctx = MakeLengthContext(mass, m);
  std::optional<RefIndex> index;
  return RunDrag(ctx, r, Phase2::kLinear, &index, stats);
}

Result<MerlinResult> Merlin(const std::vector<double>& series,
                            int64_t min_length, int64_t max_length,
                            int64_t length_step) {
  return RunMerlin(series, min_length, max_length, length_step,
                   Phase2::kLinear);
}

Result<MerlinResult> MerlinPlusPlus(const std::vector<double>& series,
                                    int64_t min_length, int64_t max_length,
                                    int64_t length_step) {
  return RunMerlin(series, min_length, max_length, length_step,
                   Phase2::kOrchard);
}

Result<MerlinResult> ExactDiscords(const std::vector<double>& region,
                                   int64_t min_length, int64_t max_length,
                                   int64_t length_step) {
  const int64_t n = static_cast<int64_t>(region.size());
  if (min_length < 2 || min_length > max_length || length_step < 1) {
    return Status::InvalidArgument("invalid discord length range");
  }
  if (2 * min_length > n) {
    return Status::InvalidArgument("series too short for discord range");
  }
  ExactInstruments();
  trace::TraceSpan sweep_span("discord.exact_sweep");
  std::vector<int64_t> lengths;
  for (int64_t m = min_length; m <= max_length; m += length_step) {
    if (2 * m > n) break;  // longer lengths have no non-trivial match
    lengths.push_back(m);
  }
  const MassContext mass(region);
  const SweepRegion sweep(mass);

  // Lengths fan out as in RunMerlin, one deadline checkpoint per length and
  // outcomes folded in ascending-length order, but in kLengthChunks
  // contiguous chunks: a chunk carries row 0's dot row from each length to
  // the next and reuses one SweepBuffers, so memory is O(n) per chunk in
  // flight. The split depends only on the number of lengths.
  struct Accum {
    MerlinResult result;
    Status first_error = Status::OK();
  };
  const int64_t num_lengths = static_cast<int64_t>(lengths.size());
  Accum accum = ParallelMapReduce(
      int64_t{0}, num_lengths,
      /*grain=*/(num_lengths + kLengthChunks - 1) / kLengthChunks, Accum{},
      [&](int64_t b, int64_t e) {
        Accum local;
        SweepBuffers buffers(n - lengths[static_cast<size_t>(b)] + 1);
        for (int64_t k = b; k < e; ++k) {
          Status deadline = CheckPassDeadline();
          if (!deadline.ok()) {
            local.first_error = deadline;
            break;
          }
          ExactOutcome one =
              SweepLength(sweep, lengths[static_cast<size_t>(k)], &buffers);
          if (one.discord.has_value()) {
            local.result.discords.push_back(*one.discord);
          }
          local.result.stats.pointwise_distance_ops += one.ops;
        }
        return local;
      },
      [](Accum acc, Accum next) {
        if (acc.first_error.ok()) acc.first_error = next.first_error;
        acc.result.discords.insert(acc.result.discords.end(),
                                   next.result.discords.begin(),
                                   next.result.discords.end());
        acc.result.stats.pointwise_distance_ops +=
            next.result.stats.pointwise_distance_ops;
        return acc;
      });
  if (!accum.first_error.ok()) return accum.first_error;
  return accum.result;
}

}  // namespace triad::discord
