// Tenant-lane job queue of the compression service: one FIFO deque per
// tenant and a priority-then-round-robin scheduling pick that only ever
// takes lane heads, so per-tenant FIFO order holds.
//
// Not thread-safe by itself — the owning CompressionService serializes all
// access under its scheduler mutex. Canceled jobs — and Done jobs whose
// queued copy was orphaned by a watchdog recovery racing the original
// execution — stay in their lane as tombstones and are reaped lazily as
// the scheduler walks over them.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "service/job.hpp"

namespace cuszp2::service::detail {

class TenantLanes {
 public:
  /// Appends to the back of the tenant's lane (creating the lane on first
  /// use; round-robin order is tenant first-seen order).
  void push(std::shared_ptr<Job> job);

  /// Scheduler pick: among non-empty lanes, take the head with the
  /// numerically lowest priority value; ties broken round-robin across
  /// tenants (the cursor advances past the chosen lane, so a hot tenant
  /// cannot starve the others at equal priority). The returned job has
  /// been transitioned Queued -> Running. Returns nullptr when nothing
  /// runnable remains (tombstones are reaped along the way).
  std::shared_ptr<Job> pop();

  /// Removes and returns every queued job (shutdown drain). Tombstones are
  /// dropped; returned jobs are transitioned Queued -> Running so the
  /// caller owns their completion.
  std::vector<std::shared_ptr<Job>> drain();

  /// Queued entries including not-yet-reaped tombstones. A worker woken on
  /// a tombstone-only queue pops nothing and goes back to sleep; entries
  /// only ever shrink in that case, so there is no busy loop.
  usize entries() const { return entries_; }

 private:
  /// Pops tombstones off the front of `lane`.
  void reapFront(std::deque<std::shared_ptr<Job>>& lane);

  struct Lane {
    std::string tenant;
    std::deque<std::shared_ptr<Job>> jobs;
  };

  Lane* laneFor(const std::string& tenant);

  std::vector<Lane> lanes_;  // round-robin order = first-seen order
  usize cursor_ = 0;         // next lane index to prefer on a tie
  usize entries_ = 0;
};

}  // namespace cuszp2::service::detail
