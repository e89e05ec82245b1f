#include "cluster/lookup_cache.hpp"

namespace fanstore::cluster {

std::optional<VersionedStat> LookupCache::find(const std::string& path,
                                               std::uint64_t* epoch) const {
  sync::MutexLock lock(mu_);
  const auto it = entries_.find(path);
  if (it != entries_.end()) return it->second;
  *epoch = epoch_;
  return std::nullopt;
}

void LookupCache::insert(const std::string& path, const VersionedStat& vs,
                         std::uint64_t epoch) {
  if (!cacheable(vs)) return;
  sync::MutexLock lock(mu_);
  if (epoch != epoch_) return;  // a ring rebuild ran while the RPC was out
  // A concurrent miss may have stored the same answer first.
  if (!entries_.try_emplace(path, vs).second) return;
  fifo_.push_back(path);
  if (entries_.size() > max_entries_) {
    entries_.erase(fifo_.front());
    fifo_.pop_front();
  }
}

void LookupCache::invalidate() {
  sync::MutexLock lock(mu_);
  entries_.clear();
  fifo_.clear();
  ++epoch_;
}

}  // namespace fanstore::cluster
