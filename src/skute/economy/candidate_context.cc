#include "skute/economy/candidate_context.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "skute/common/hash.h"
#include "skute/topology/location.h"

namespace skute {

namespace {

/// Slack for the prune bound: the bound algebra is exact in real
/// arithmetic; this margin absorbs the handful of ulps the floating-
/// point evaluation of score and bound can each round by. ~1e-16
/// relative error would suffice — 1e-9 keeps a huge safety factor at
/// the cost of a few extra frontier candidates per call.
constexpr double kBoundSlack = 1e-9;

}  // namespace

void CandidateContext::Build(const Cluster& cluster,
                             const CandidateParams& params,
                             const std::vector<const ClientMix*>& mixes,
                             const IndexedRunner& run_indexed) {
  cluster_ = &cluster;
  params_ = params;
  server_count_ = cluster.size();

  // Candidate universe: every server that could pass Admissible for
  // *some* byte size. Offline and zero-capacity servers can never pass;
  // membership is frozen during the propose stage, so the set is exact.
  std::vector<ServerId> universe;
  universe.reserve(server_count_);
  for (ServerId id = 0; id < server_count_; ++id) {
    const Server* s = cluster.server(id);
    if (s == nullptr || !s->online()) continue;
    if (s->resources().storage_capacity == 0) continue;
    universe.push_back(id);
  }

  orders_.clear();
  orders_.resize(mixes.size());
  const Board& board = cluster.board();
  for (size_t m = 0; m < mixes.size(); ++m) {
    MixOrder& mo = orders_[m];
    mo.mix = mixes[m];
    mo.safe = true;
    const size_t n = universe.size();
    mo.gain.assign(n, 0.0);
    mo.key.assign(n, 0.0);
    mo.order = universe;

    // The per-(mix, server) proximity factor is the expensive part
    // (MeanClientDiversity walks every client load) — fan it out.
    const ClientMix* mix = mo.mix;
    auto compute = [&](size_t i) {
      const Server* s = cluster.server(universe[i]);
      const double g =
          mix == nullptr ? 1.0 : NormalizedProximity(*mix, s->location());
      // Left-associated exactly like ScoreCandidateForSet's
      //   diversity_weight * g * conf * diversity_sum
      // so gain * diversity_sum reproduces its partial products bit for
      // bit.
      const double gain =
          params.diversity_weight * g * s->economics().confidence;
      mo.gain[i] = gain;
      mo.key[i] = static_cast<double>(kMaxDiversity) * gain -
                  board.RentOf(universe[i]);
    };
    if (run_indexed) {
      run_indexed(n, compute);
    } else {
      for (size_t i = 0; i < n; ++i) compute(i);
    }

    for (size_t i = 0; i < n; ++i) {
      if (!(mo.gain[i] >= 0.0) || !std::isfinite(mo.gain[i])) {
        mo.safe = false;
        break;
      }
    }
    if (!mo.safe) continue;

    // Sort by descending key, id ascending on ties (determinism — the
    // scan order never affects the winner, only how early we stop).
    std::vector<size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (mo.key[a] != mo.key[b]) return mo.key[a] > mo.key[b];
      return universe[a] < universe[b];
    });
    MixOrder sorted;
    sorted.mix = mo.mix;
    sorted.safe = true;
    sorted.order.reserve(n);
    sorted.gain.reserve(n);
    sorted.key.reserve(n);
    for (size_t i : idx) {
      sorted.order.push_back(universe[i]);
      sorted.gain.push_back(mo.gain[i]);
      sorted.key.push_back(mo.key[i]);
    }
    sorted.suffix_max_gain.assign(n, 0.0);
    double running = 0.0;
    for (size_t i = n; i-- > 0;) {
      running = std::max(running, sorted.gain[i]);
      sorted.suffix_max_gain[i] = running;
    }
    orders_[m] = std::move(sorted);
  }
}

const CandidateContext::MixOrder* CandidateContext::FindOrder(
    const ClientMix* mix) const {
  for (const MixOrder& mo : orders_) {
    if (mo.mix == mix) return &mo;
  }
  return nullptr;
}

void CandidateContext::AddTally(const SelectTally& tally) const {
  counters_.select_calls.fetch_add(tally.select_calls,
                                   std::memory_order_relaxed);
  counters_.candidates_scored.fetch_add(tally.candidates_scored,
                                        std::memory_order_relaxed);
  counters_.full_scans.fetch_add(tally.full_scans,
                                 std::memory_order_relaxed);
}

Result<CandidateChoice> CandidateContext::Select(
    const std::vector<ServerId>& replica_servers, uint64_t bytes_needed,
    const ClientMix* mix, const std::vector<ServerId>& exclude,
    const RentSurcharge* surcharge, uint64_t tie_break_salt,
    SelectTally* tally) const {
  if (cluster_ == nullptr) {
    return Status::FailedPrecondition("CandidateContext not built");
  }
  ++tally->select_calls;
  const MixOrder* mo = FindOrder(mix);
  if (cluster_->size() != server_count_ || mo == nullptr || !mo->safe) {
    ++tally->full_scans;
    return SelectTargetForSet(*cluster_, replica_servers, bytes_needed, mix,
                              params_, exclude, surcharge, tie_break_salt);
  }

  const Cluster& cluster = *cluster_;
  const Board& board = cluster.board();

  // Small sorted skip set (the satellite fix SelectTargetForSet also
  // got): replica sets and exclusions are a handful of ids.
  std::vector<ServerId> skip = replica_servers;
  skip.insert(skip.end(), exclude.begin(), exclude.end());
  std::sort(skip.begin(), skip.end());

  // Live replica count caps the diversity sum at kMaxDiversity * live.
  size_t live = 0;
  for (ServerId id : replica_servers) {
    const Server* s = cluster.server(id);
    if (s != nullptr && s->online()) ++live;
  }
  const double live_over_one =
      static_cast<double>(kMaxDiversity) *
      static_cast<double>(live > 0 ? live - 1 : 0);

  // Negative surcharges (none today — penalties are positive) would
  // raise scores above the rent-based keys; fold the most negative one
  // into the bound so the ledger stays exact.
  const double surcharge_floor =
      surcharge == nullptr ? 0.0 : surcharge->Floor();

  CandidateChoice best;
  bool found = false;
  double best_rent = 0.0;
  uint64_t best_salted = 0;
  uint64_t scored = 0;

  for (size_t i = 0; i < mo->order.size(); ++i) {
    if (found) {
      const double bound =
          live_over_one * mo->suffix_max_gain[i] + mo->key[i] -
          surcharge_floor;
      const double slack = kBoundSlack * (1.0 + std::fabs(best.score));
      if (bound + slack < best.score) break;  // NaN-safe: false on NaN
    }
    const ServerId id = mo->order[i];
    const Server* s = cluster.server(id);
    if (!CandidateAdmissible(*s, bytes_needed, params_)) continue;
    if (std::binary_search(skip.begin(), skip.end(), id)) continue;

    ++scored;
    // Exactly ScoreCandidateForSet: diversity summed in replica order,
    // offline/unknown replicas contributing nothing.
    double diversity_sum = 0.0;
    for (ServerId rid : replica_servers) {
      const Server* rs = cluster.server(rid);
      if (rs == nullptr || !rs->online()) continue;
      diversity_sum += static_cast<double>(
          DiversityValue(rs->location(), s->location()));
    }
    const double rent = board.RentOf(id) + SurchargeOf(surcharge, id);
    const double score = mo->gain[i] * diversity_sum - rent;

    const uint64_t salted = Mix64(id ^ tie_break_salt);
    bool better = false;
    if (!found || score > best.score) {
      better = true;
    } else if (score == best.score &&
               (rent < best_rent ||
                (rent == best_rent && salted < best_salted))) {
      better = true;
    }
    if (better) {
      best.server = id;
      best.score = score;
      best_rent = rent;
      best_salted = salted;
      found = true;
    }
  }
  tally->candidates_scored += scored;

  if (!found) {
    return Status::NotFound("no feasible replica target");
  }
  return best;
}

}  // namespace skute
