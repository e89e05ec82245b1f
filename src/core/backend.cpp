#include "core/backend.hpp"

#include "fault/injector.hpp"

namespace fanstore::core {

void RamBackend::put(const std::string& path, Blob blob) {
  sync::MutexLock lk(mu_);
  const auto it = blobs_.find(path);
  if (it != blobs_.end()) bytes_ -= it->second.data.size();
  bytes_ += blob.data.size();
  blobs_[path] = std::move(blob);
}

std::optional<Blob> RamBackend::get(const std::string& path) const {
  sync::MutexLock lk(mu_);
  const auto it = blobs_.find(path);
  if (it == blobs_.end()) return std::nullopt;
  return it->second;
}

bool RamBackend::contains(const std::string& path) const {
  sync::MutexLock lk(mu_);
  return blobs_.count(path) > 0;
}

std::size_t RamBackend::bytes_used() const {
  sync::MutexLock lk(mu_);
  return bytes_;
}

std::size_t RamBackend::object_count() const {
  sync::MutexLock lk(mu_);
  return blobs_.size();
}

VfsBackend::VfsBackend(posixfs::Vfs* local_fs, std::string root)
    : fs_(local_fs), root_(std::move(root)) {}

std::string VfsBackend::object_path(const std::string& path) const {
  return root_ + "/" + path;
}

void VfsBackend::put(const std::string& path, Blob blob) {
  Bytes payload;
  payload.reserve(blob.data.size() + 2);
  append_le<std::uint16_t>(payload, blob.compressor);
  payload.insert(payload.end(), blob.data.begin(), blob.data.end());
  const int rc = posixfs::write_file(*fs_, object_path(path), as_view(payload));
  if (rc != 0) {
    throw std::runtime_error("VfsBackend: write failed for " + path +
                             " rc=" + std::to_string(rc));
  }
  sync::MutexLock lk(mu_);
  auto [it, inserted] = known_.try_emplace(path, true);
  if (inserted) {
    ++count_;
  }
  bytes_ += blob.data.size();  // approximation: overwrites are rare (write-once)
}

std::optional<Blob> VfsBackend::get(const std::string& path) const {
  const auto payload = posixfs::read_file(*fs_, object_path(path));
  if (!payload || payload->size() < 2) return std::nullopt;
  return Blob{load_le<std::uint16_t>(payload->data()),
              Bytes(payload->begin() + 2, payload->end())};
}

bool VfsBackend::contains(const std::string& path) const {
  {
    sync::MutexLock lk(mu_);
    if (known_.count(path) > 0) return true;
  }
  format::FileStat st;
  return fs_->stat(object_path(path), &st) == 0;
}

std::size_t VfsBackend::bytes_used() const {
  sync::MutexLock lk(mu_);
  return bytes_;
}

std::size_t VfsBackend::object_count() const {
  sync::MutexLock lk(mu_);
  return count_;
}

FaultInjectedBackend::FaultInjectedBackend(
    std::unique_ptr<CompressedBackend> inner, int rank,
    fault::FaultInjector* injector)
    : inner_(std::move(inner)), rank_(rank), injector_(injector) {}

void FaultInjectedBackend::put(const std::string& path, Blob blob) {
  inner_->put(path, std::move(blob));
}

std::optional<Blob> FaultInjectedBackend::get(const std::string& path) const {
  std::optional<Blob> blob = inner_->get(path);
  const fault::BackendVerdict v =
      injector_->backend_get_action(rank_, path, blob ? blob->data.size() : 0);
  switch (v.action) {
    case fault::BackendAction::kFail:
      return std::nullopt;  // read error: the object is unreachable
    case fault::BackendAction::kCorrupt: {
      if (!blob) return blob;
      Bytes torn(blob->data.begin(), blob->data.end());
      fault::flip_bytes(torn, v.draw);
      blob->data = std::move(torn);
      return blob;  // torn object: crc layers above must catch it
    }
    case fault::BackendAction::kNone:
      break;
  }
  return blob;
}

bool FaultInjectedBackend::contains(const std::string& path) const {
  return inner_->contains(path);
}

std::size_t FaultInjectedBackend::bytes_used() const {
  return inner_->bytes_used();
}

std::size_t FaultInjectedBackend::object_count() const {
  return inner_->object_count();
}

}  // namespace fanstore::core
