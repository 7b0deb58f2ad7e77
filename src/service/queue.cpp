#include "service/queue.hpp"

#include <algorithm>

namespace cuszp2::service::detail {

TenantLanes::Lane* TenantLanes::laneFor(const std::string& tenant) {
  for (Lane& lane : lanes_) {
    if (lane.tenant == tenant) return &lane;
  }
  lanes_.push_back(Lane{tenant, {}});
  return &lanes_.back();
}

void TenantLanes::push(std::shared_ptr<Job> job) {
  laneFor(job->tenant)->jobs.push_back(std::move(job));
  ++entries_;
}

void TenantLanes::reapFront(std::deque<std::shared_ptr<Job>>& lane) {
  // Canceled jobs are the classic tombstone; Done jobs appear when a
  // watchdog-recovered job was requeued and its original execution then
  // finished first — the queued copy must be dropped, or entries_ never
  // drains and the workers busy-wake forever.
  for (;;) {
    if (lane.empty()) break;
    const Phase p = lane.front()->phase.load(std::memory_order_acquire);
    if (p != Phase::Canceled && p != Phase::Done) break;
    lane.pop_front();
    --entries_;
  }
}

std::shared_ptr<Job> TenantLanes::pop() {
  if (lanes_.empty()) return nullptr;
  for (;;) {
    // Best (lowest) priority among lane heads, reaping tombstones.
    bool any = false;
    u8 best = 255;
    for (Lane& lane : lanes_) {
      reapFront(lane.jobs);
      if (lane.jobs.empty()) continue;
      any = true;
      best = std::min(best, lane.jobs.front()->priority);
    }
    if (!any) return nullptr;

    // Round-robin among the lanes whose head carries the best priority.
    for (usize step = 0; step < lanes_.size(); ++step) {
      Lane& lane = lanes_[(cursor_ + step) % lanes_.size()];
      if (lane.jobs.empty() || lane.jobs.front()->priority != best) {
        continue;
      }
      std::shared_ptr<Job> job = lane.jobs.front();
      lane.jobs.pop_front();
      --entries_;
      cursor_ = ((cursor_ + step) % lanes_.size() + 1) % lanes_.size();
      Phase expected = Phase::Queued;
      if (job->phase.compare_exchange_strong(expected, Phase::Running)) {
        return job;
      }
      // Lost the race to a concurrent cancel: rescan from scratch (the
      // head priorities may have changed).
      break;
    }
  }
}

std::vector<std::shared_ptr<Job>> TenantLanes::drain() {
  std::vector<std::shared_ptr<Job>> out;
  for (Lane& lane : lanes_) {
    for (std::shared_ptr<Job>& job : lane.jobs) {
      --entries_;
      Phase expected = Phase::Queued;
      if (job->phase.compare_exchange_strong(expected, Phase::Running)) {
        out.push_back(std::move(job));
      }
    }
    lane.jobs.clear();
  }
  return out;
}

}  // namespace cuszp2::service::detail
