#include "service/matcache/exec_context.h"

#include <utility>

#include "obs/trace_context.h"
#include "sched/thread_pool.h"

namespace remac {

MatExecContext::MatExecContext(
    MatCache* cache,
    std::shared_ptr<const std::vector<SubplanCandidate>> candidates,
    const DataCatalog& catalog, const RunConfig& config)
    : cache_(cache), candidates_(std::move(candidates)) {
  const std::string env_digest = ExecEnvDigest(config);
  std::unordered_map<std::string, KeyState*> by_key;
  for (const SubplanCandidate& candidate : *candidates_) {
    Result<std::string> key =
        IntermediateCacheKey(candidate, catalog, env_digest);
    if (!key.ok()) continue;  // dataset left the catalog: don't cache
    auto it = by_key.find(key.value());
    if (it != by_key.end()) {
      // Another node of this plan computes the same key; share its
      // resolution instead of joining the flight twice.
      by_node_.emplace(candidate.node.get(), it->second);
      continue;
    }
    auto state = std::make_unique<KeyState>();
    state->key = std::move(key).value();
    state->candidate = &candidate;
    ++stats_.probes;
    state->served = cache_->Get(state->key);
    if (state->served != nullptr) {
      ++stats_.hits;
      cache_->RecordFlopsSaved(candidate.predicted_flops);
    } else {
      auto [flight, leader] = cache_->JoinFlight(state->key);
      if (leader) {
        // With single-flight disabled JoinFlight reports everyone as a
        // flightless leader: still compute-and-admit, just with nobody
        // to publish to (CompleteFlight is a no-op without a flight).
        state->leader = true;
        if (flight != nullptr) {
          leads_any_ = true;
          ++stats_.flights_led;
        }
      } else {
        state->follower = true;
        state->flight = std::move(flight);
      }
    }
    by_key.emplace(state->key, state.get());
    by_node_.emplace(candidate.node.get(), state.get());
    states_.push_back(std::move(state));
  }
}

MatExecContext::~MatExecContext() {
  // A led flight nobody offered to (failed request, loop that exited
  // before reaching the node) would strand its followers; cancel wakes
  // them to compute locally.
  for (const auto& state : states_) {
    if (state->leader && !state->completed) {
      cache_->CancelFlight(state->key);
    }
  }
}

const RtValue* MatExecContext::ServedLocked(const KeyState& state) const {
  if (state.served != nullptr) return &state.served->value;
  if (state.local != nullptr) return state.local.get();
  return nullptr;
}

const RtValue* MatExecContext::Lookup(const PlanNode* node) {
  auto it = by_node_.find(node);
  if (it == by_node_.end()) return nullptr;
  KeyState* state = it->second;

  std::shared_ptr<MatCache::Flight> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const RtValue* served = ServedLocked(*state)) return served;
    if (!state->follower) return nullptr;  // leader or local: compute
    if (leads_any_) {
      // Leader-never-waits: a context that owes results to followers
      // elsewhere must not block on another leader (two leaders waiting
      // on each other's keys would deadlock). Compute this one locally.
      return nullptr;
    }
    flight = state->flight;
  }

  // Pure waiter: block on the leader's result, helping drain its own
  // lane meanwhile so a fleet of waiting sessions cannot starve the
  // leader's nested tasks.
  const double wait_start_us = TraceNowMicros();
  if (ThreadPool* self = ThreadPool::CurrentPool(); self != nullptr) {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(flight->mu);
        if (flight->done) break;
      }
      if (!self->TryRunOne()) break;
    }
  }
  std::shared_ptr<const MaterializedIntermediate> served =
      cache_->WaitFlight(flight.get());
  const double wait_end_us = TraceNowMicros();
  cache_->RecordFlightWait((wait_end_us - wait_start_us) * 1e-6);
  RecordWaitSpan("matcache-flight-wait", wait_start_us, wait_end_us);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.flight_waits;
  state->follower = false;  // resolved either way; never wait again
  state->flight.reset();
  if (served == nullptr) return nullptr;  // cancelled: compute locally
  state->served = std::move(served);
  cache_->RecordFlopsSaved(state->candidate->predicted_flops);
  return &state->served->value;
}

void MatExecContext::Offer(const PlanNode* node, const RtValue& value) {
  auto it = by_node_.find(node);
  if (it == by_node_.end()) return;
  KeyState* state = it->second;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ServedLocked(*state) != nullptr) return;  // already resolved
    if (state->leader && !state->completed) {
      state->completed = true;
    } else if (state->leader) {
      return;  // already offered; nothing to do
    } else {
      // Computed locally (a leader elsewhere owns the flight, or it was
      // cancelled): keep a copy so loop iterations and sibling nodes of
      // this request are still served without recomputing.
      state->local = std::make_shared<const RtValue>(value);
      return;
    }
  }

  // Leader path: admission + publication outside mu_ (cache locks and
  // follower wakeups don't need the context lock).
  std::shared_ptr<const MaterializedIntermediate> entry = cache_->Offer(
      state->key, value, state->candidate->predicted_flops,
      state->candidate->datasets);
  cache_->CompleteFlight(state->key, entry);
  std::lock_guard<std::mutex> lock(mu_);
  state->served = std::move(entry);
}

MatRequestStats MatExecContext::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace remac
