#include "cluster/metadata_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"

namespace fanstore::cluster {

namespace {
std::pair<std::string, std::string> split_parent(const std::string& path) {
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return {std::string{}, path};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

/// Per-entry mix for the order-independent shard digest: covers the path,
/// the LWW tuple, and the stat fields anti-entropy must not miss. Two
/// replicas whose shard digests match hold the same winning entries.
std::uint64_t entry_mix(const std::string& path, const VersionedStat& e) {
  std::uint8_t raw[format::kStatBytes];
  e.stat.serialize(raw);
  std::uint64_t h = util::stable_hash64(path);
  h = util::mix64(h ^ e.version);
  h = util::mix64(h ^ e.writer);
  h = util::mix64(h ^ util::stable_hash64(std::string_view(
                          reinterpret_cast<const char*>(raw), sizeof raw)));
  return h;
}
}  // namespace

void MetadataStore::index_parents_locked(const std::string& path) {
  // Walk up: file itself is registered by caller; here we register each
  // ancestor directory and its child link.
  std::string current = path;
  bool child_is_dir = false;
  for (;;) {
    auto [parent, name] = split_parent(current);
    children_[parent].insert({name, child_is_dir});
    if (parent.empty()) break;
    dirs_.insert(parent);
    current = parent;
    child_is_dir = true;
  }
}

void MetadataStore::reindex_locked() {
  children_.clear();
  dirs_.clear();
  for (const auto& [path, entry] : files_) index_parents_locked(path);
}

bool MetadataStore::insert_locked(const std::string& path,
                                  const VersionedStat& entry,
                                  bool versioned) {
  if (path.empty()) throw std::invalid_argument("MetadataStore: empty path");
  const auto it = files_.find(path);
  if (it == files_.end()) {
    files_.emplace(path, entry);
    index_parents_locked(path);
    return true;
  }
  // Load-time inserts overwrite unconditionally; replicated inserts race
  // under deterministic last-writer-wins.
  if (versioned && !entry.wins_over(it->second)) return false;
  it->second = entry;
  return true;
}

void MetadataStore::insert(const std::string& path, const format::FileStat& stat) {
  sync::MutexLock lk(mu_);
  insert_locked(path, VersionedStat{stat, 0, 0}, /*versioned=*/false);
}

bool MetadataStore::insert_versioned(const std::string& path,
                                     const VersionedStat& entry) {
  sync::MutexLock lk(mu_);
  return insert_locked(path, entry, /*versioned=*/true);
}

std::optional<format::FileStat> MetadataStore::lookup(const std::string& path) const {
  sync::MutexLock lk(mu_);
  const auto it = files_.find(path);
  if (it != files_.end()) return it->second.stat;
  if (path.empty() || dirs_.count(path) > 0) {
    format::FileStat s;
    s.type = format::FileType::kDirectory;
    s.mode = 0755;
    return s;
  }
  return std::nullopt;
}

std::optional<VersionedStat> MetadataStore::lookup_versioned(
    const std::string& path) const {
  sync::MutexLock lk(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

bool MetadataStore::dir_exists(const std::string& path) const {
  sync::MutexLock lk(mu_);
  return path.empty() || dirs_.count(path) > 0;
}

std::vector<posixfs::Dirent> MetadataStore::list(const std::string& dir) const {
  sync::MutexLock lk(mu_);
  std::vector<posixfs::Dirent> out;
  const auto it = children_.find(dir);
  if (it == children_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [name, is_dir] : it->second) {
    out.push_back(posixfs::Dirent{
        name, is_dir ? format::FileType::kDirectory : format::FileType::kRegular});
  }
  return out;
}

std::size_t MetadataStore::file_count() const {
  sync::MutexLock lk(mu_);
  return files_.size();
}

std::vector<std::string> MetadataStore::all_paths() const {
  sync::MutexLock lk(mu_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [p, s] : files_) out.push_back(p);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MetadataStore::shard_digest(std::uint32_t shard,
                                          std::uint32_t nshards) const {
  sync::MutexLock lk(mu_);
  std::uint64_t h = 0;
  for (const auto& [path, entry] : files_) {
    if (shard_of(path, nshards) != shard) continue;
    h ^= entry_mix(path, entry);
  }
  return h;
}

Bytes MetadataStore::serialize_shard(std::uint32_t shard,
                                     std::uint32_t nshards) const {
  sync::MutexLock lk(mu_);
  std::vector<std::string> paths;  // sorted below: deterministic output
  for (const auto& [path, entry] : files_) {
    if (shard_of(path, nshards) == shard) paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  Bytes out;
  append_le<std::uint32_t>(out, 0);  // patched below
  std::uint32_t count = 0;
  for (const std::string& path : paths) {
    const auto it = files_.find(path);
    if (it == files_.end()) continue;  // raced with drop: skip
    append_le<std::uint16_t>(out, static_cast<std::uint16_t>(path.size()));
    out.insert(out.end(), path.begin(), path.end());
    append_le<std::uint64_t>(out, it->second.version);
    append_le<std::uint32_t>(out, it->second.writer);
    out.resize(out.size() + format::kStatBytes);
    it->second.stat.serialize(out.data() + out.size() - format::kStatBytes);
    ++count;
  }
  store_le<std::uint32_t>(out.data(), count);
  return out;
}

std::size_t MetadataStore::merge_shard(ByteView blob) {
  if (blob.size() < 4) {
    throw std::invalid_argument("MetadataStore: truncated shard blob");
  }
  const std::uint32_t count = load_le<std::uint32_t>(blob.data());
  std::size_t pos = 4;
  std::size_t applied = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 2 > blob.size()) {
      throw std::invalid_argument("MetadataStore: truncated shard entry header");
    }
    const std::uint16_t len = load_le<std::uint16_t>(blob.data() + pos);
    pos += 2;
    if (pos + len + 12 + format::kStatBytes > blob.size()) {
      throw std::invalid_argument("MetadataStore: truncated shard entry body");
    }
    std::string path(reinterpret_cast<const char*>(blob.data() + pos), len);
    pos += len;
    VersionedStat entry;
    entry.version = load_le<std::uint64_t>(blob.data() + pos);
    entry.writer = load_le<std::uint32_t>(blob.data() + pos + 8);
    pos += 12;
    entry.stat = format::FileStat::deserialize(blob.data() + pos);
    pos += format::kStatBytes;
    if (insert_versioned(path, entry)) ++applied;
  }
  return applied;
}

void MetadataStore::drop_shard(std::uint32_t shard, std::uint32_t nshards) {
  sync::MutexLock lk(mu_);
  bool dropped = false;
  for (auto it = files_.begin(); it != files_.end();) {
    if (shard_of(it->first, nshards) != shard) {
      ++it;
      continue;
    }
    it = files_.erase(it);
    dropped = true;
  }
  // Directory links are namespace-wide, so rebuild them from what's left.
  if (dropped) reindex_locked();
}

std::vector<std::string> MetadataStore::shard_paths(std::uint32_t shard,
                                                    std::uint32_t nshards) const {
  sync::MutexLock lk(mu_);
  std::vector<std::string> out;
  for (const auto& [path, entry] : files_) {
    if (shard_of(path, nshards) == shard) out.push_back(path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fanstore::cluster
