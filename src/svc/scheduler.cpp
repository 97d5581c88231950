#include "casc/svc/scheduler.hpp"

#include <algorithm>
#include <iterator>

#include "casc/common/check.hpp"

namespace casc::svc {

const char* to_string(Admit admit) noexcept {
  switch (admit) {
    case Admit::kAccepted: return "accepted";
    case Admit::kQueueFull: return "svc-queue-full";
    case Admit::kDraining: return "svc-draining";
    case Admit::kDuplicateJob: return "svc-duplicate-job";
  }
  return "?";
}

void JobIdRanges::insert(std::uint64_t id) {
  // First range starting above id; its predecessor is the only range that
  // can contain id or end right below it.
  auto next = ranges_.upper_bound(id);
  if (next != ranges_.begin()) {
    auto prev = std::prev(next);
    if (prev->second >= id) return;
    if (prev->second + 1 == id) {
      prev->second = id;
      if (next != ranges_.end() && next->first == id + 1) {
        prev->second = next->second;
        ranges_.erase(next);
      }
      return;
    }
  }
  if (next != ranges_.end() && next->first == id + 1) {
    const std::uint64_t hi = next->second;
    ranges_.erase(next);
    ranges_.emplace(id, hi);
    return;
  }
  ranges_.emplace(id, id);
}

bool JobIdRanges::contains(std::uint64_t id) const {
  auto next = ranges_.upper_bound(id);
  return next != ranges_.begin() && std::prev(next)->second >= id;
}

TenantScheduler::TenantScheduler(std::size_t queue_cap) : queue_cap_(queue_cap) {
  CASC_CHECK(queue_cap >= 1, "TenantScheduler: queue_cap must be >= 1");
}

Admit TenantScheduler::submit(JobTicket&& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& tenant = tenants_[job.request.tenant];
  tenant.weight = job.request.weight;
  tenant.stats.weight = job.request.weight;
  if (draining_ || shutdown_) {
    ++tenant.stats.rejected;
    return Admit::kDraining;
  }
  if (tenant.seen_jobs.contains(job.request.job)) {
    ++tenant.stats.rejected;
    return Admit::kDuplicateJob;
  }
  if (queued_ >= queue_cap_) {
    ++tenant.stats.rejected;
    return Admit::kQueueFull;
  }
  tenant.seen_jobs.insert(job.request.job);
  const std::string name = job.request.tenant;
  tenant.queue.push_back(std::move(job));
  ++queued_;
  ++tenant.stats.submitted;
  if (!tenant.in_ring) {
    tenant.in_ring = true;
    tenant.credit = 0;
    ring_.push_back(name);
  }
  work_cv_.notify_one();
  return Admit::kAccepted;
}

bool TenantScheduler::pop_batch(std::size_t max_jobs,
                                std::vector<JobTicket>& out) {
  out.clear();
  CASC_CHECK(max_jobs >= 1, "pop_batch: max_jobs must be >= 1");
  std::unique_lock<std::mutex> lock(mutex_);
  work_cv_.wait(lock, [&] {
    return shutdown_ || queued_ != 0 || (draining_ && queued_ == 0);
  });
  if (shutdown_ || queued_ == 0) return false;  // drained or shut down

  // WRR: the tenant at the ring front spends its cycle credit; when the
  // credit (or its queue) is exhausted it rotates to the back, so every
  // active tenant is visited once per cycle.
  const std::string name = ring_.front();
  Tenant& tenant = tenants_[name];
  if (tenant.credit == 0) tenant.credit = tenant.weight;
  const std::size_t take =
      std::min({max_jobs, static_cast<std::size_t>(tenant.credit),
                tenant.queue.size()});
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(std::move(tenant.queue.front()));
    tenant.queue.pop_front();
  }
  queued_ -= take;
  in_flight_ += take;
  tenant.credit -= static_cast<std::uint32_t>(take);
  if (tenant.queue.empty()) {
    tenant.in_ring = false;
    tenant.credit = 0;
    ring_.pop_front();
  } else if (tenant.credit == 0) {
    ring_.pop_front();
    ring_.push_back(name);
  }
  // More work may remain for a concurrent popper.
  if (queued_ != 0) work_cv_.notify_one();
  return true;
}

void TenantScheduler::note_done(const std::string& tenant, std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) it->second.stats.completed += n;
  CASC_CHECK(in_flight_ >= n, "note_done: more completions than pops");
  in_flight_ -= n;
  if (queued_ == 0 && in_flight_ == 0) idle_cv_.notify_all();
}

void TenantScheduler::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  work_cv_.notify_all();
  if (queued_ == 0 && in_flight_ == 0) idle_cv_.notify_all();
}

void TenantScheduler::shutdown() {
  std::vector<JobTicket> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    draining_ = true;
    for (auto& [name, tenant] : tenants_) {
      while (!tenant.queue.empty()) {
        orphans.push_back(std::move(tenant.queue.front()));
        tenant.queue.pop_front();
        ++tenant.stats.rejected;
      }
      tenant.in_ring = false;
    }
    ring_.clear();
    queued_ = 0;
    work_cv_.notify_all();
    idle_cv_.notify_all();
  }
  // Reply outside the lock: the hooks write sockets.
  for (JobTicket& job : orphans) {
    if (job.on_error) {
      job.on_error({job.request.job, "svc-draining",
                    "server shut down before the job was dispatched"});
    }
  }
}

void TenantScheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return queued_ == 0 && in_flight_ == 0; });
}

bool TenantScheduler::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::size_t TenantScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

std::size_t TenantScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::vector<std::pair<std::string, TenantScheduler::TenantStats>>
TenantScheduler::tenant_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, TenantStats>> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    out.emplace_back(name, tenant.stats);
    out.back().second.seen_id_ranges = tenant.seen_jobs.ranges();
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace casc::svc
