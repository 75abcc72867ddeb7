// Using the discord-discovery substrate standalone: parameter-free
// variable-length anomaly search with MERLIN, MERLIN++ and the exact
// per-length sweep TriAD's detector runs, no training at all. This is the
// classical (Keogh-school) alternative TriAD builds on.

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "discord/discord.h"

int main() {
  using namespace triad;
  constexpr double kPi = 3.14159265358979323846;

  // A sensor trace with a frequency glitch at samples [2000, 2060).
  Rng rng(5);
  std::vector<double> series(4000);
  for (size_t t = 0; t < series.size(); ++t) {
    const double freq = (t >= 2000 && t < 2060) ? 2.0 : 1.0;
    series[t] = std::sin(2.0 * kPi * freq * static_cast<double>(t) / 80.0) +
                rng.Normal(0.0, 0.05);
  }
  std::printf("series: %zu points, glitch hidden at [2000, 2060)\n\n",
              series.size());

  // MERLIN: top discord at every length in [40, 120], step 8.
  Timer timer;
  auto merlin = discord::Merlin(series, 40, 120, 8);
  if (!merlin.ok()) {
    std::printf("MERLIN failed: %s\n", merlin.status().ToString().c_str());
    return 1;
  }
  const double merlin_s = timer.ElapsedSeconds();

  timer.Reset();
  auto merlin_pp = discord::MerlinPlusPlus(series, 40, 120, 8);
  if (!merlin_pp.ok()) {
    std::printf("MERLIN++ failed: %s\n",
                merlin_pp.status().ToString().c_str());
    return 1;
  }
  const double merlin_pp_s = timer.ElapsedSeconds();

  std::printf("%-8s %-10s %-10s\n", "length", "position", "nn distance");
  for (const discord::Discord& d : merlin->discords) {
    std::printf("%-8lld %-10lld %-10.3f%s\n",
                static_cast<long long>(d.length),
                static_cast<long long>(d.position), d.distance,
                (d.position >= 1940 && d.position <= 2060) ? "  <-- glitch"
                                                           : "");
  }
  std::printf("\nMERLIN: %.3fs (%lld early-abandon ops)\n", merlin_s,
              static_cast<long long>(merlin->stats.pointwise_distance_ops));
  std::printf("MERLIN++: %.3fs (%lld ops) — identical discords, Orchard-"
              "ordered NN confirmation\n",
              merlin_pp_s,
              static_cast<long long>(
                  merlin_pp->stats.pointwise_distance_ops));

  // The exact per-length sweep the TriAD detector runs: one matrix-profile
  // pass per length, the same discords as MERLIN up to exact ties.
  timer.Reset();
  auto exact = discord::ExactDiscords(series, 40, 120, 8);
  if (!exact.ok()) {
    std::printf("exact sweep failed: %s\n",
                exact.status().ToString().c_str());
    return 1;
  }
  const double exact_s = timer.ElapsedSeconds();
  size_t same = 0;
  for (size_t k = 0; k < exact->discords.size() &&
                     k < merlin->discords.size();
       ++k) {
    same += exact->discords[k].position == merlin->discords[k].position &&
            exact->discords[k].distance == merlin->discords[k].distance;
  }
  std::printf("exact sweep: %.3fs — %zu of %zu lengths identical to MERLIN\n",
              exact_s, same, merlin->discords.size());

  // The exact brute-force reference for one length, for comparison.
  timer.Reset();
  auto brute = discord::BruteForceDiscord(series, 64);
  if (brute.ok()) {
    std::printf("brute force (length 64): position %lld, %.3fs\n",
                static_cast<long long>(brute->position),
                timer.ElapsedSeconds());
  }
  return 0;
}
