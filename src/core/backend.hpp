// Compressed-object backends (§IV-C1): the node-local store that holds the
// partitions' compressed file payloads. RAM backend = hash table of byte
// arrays; Vfs backend = files on the node-local filesystem (SSD), matching
// the paper's two back-end options.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "compress/compressor.hpp"
#include "posixfs/vfs.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace fanstore::fault {
class FaultInjector;
}

namespace fanstore::core {

struct Blob {
  compress::CompressorId compressor = 0;
  Bytes data;  // compressed payload
};

class CompressedBackend {
 public:
  virtual ~CompressedBackend() = default;
  virtual void put(const std::string& path, Blob blob) = 0;
  virtual std::optional<Blob> get(const std::string& path) const = 0;
  virtual bool contains(const std::string& path) const = 0;
  virtual std::size_t bytes_used() const = 0;
  virtual std::size_t object_count() const = 0;
};

/// RAM-backed store: compressed byte arrays in a hash table keyed by path.
class RamBackend final : public CompressedBackend {
 public:
  void put(const std::string& path, Blob blob) override;
  std::optional<Blob> get(const std::string& path) const override;
  bool contains(const std::string& path) const override;
  std::size_t bytes_used() const override;
  std::size_t object_count() const override;

 private:
  mutable sync::Mutex mu_{"ram_backend.mu"};
  std::unordered_map<std::string, Blob> blobs_ GUARDED_BY(mu_);
  std::size_t bytes_ GUARDED_BY(mu_) = 0;
};

/// Local-disk store: each object is a file `<root>/<path>` whose contents
/// are a 2-byte compressor id followed by the compressed payload.
class VfsBackend final : public CompressedBackend {
 public:
  /// `local_fs` models the node-local SSD; must outlive the backend.
  VfsBackend(posixfs::Vfs* local_fs, std::string root);

  void put(const std::string& path, Blob blob) override;
  std::optional<Blob> get(const std::string& path) const override;
  bool contains(const std::string& path) const override;
  std::size_t bytes_used() const override;
  std::size_t object_count() const override;

 private:
  std::string object_path(const std::string& path) const;

  posixfs::Vfs* fs_;  // must be internally thread-safe (all Vfs impls are)
  std::string root_;
  mutable sync::Mutex mu_{"vfs_backend.mu"};
  std::size_t bytes_ GUARDED_BY(mu_) = 0;
  std::size_t count_ GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, bool> known_ GUARDED_BY(mu_);  // membership cache
};

/// Decorator that injects scripted read faults into an inner backend (a
/// flaky SSD / torn object, fault::BackendRule): get() may fail (nullopt)
/// or return a corrupted copy — the format/crc layers above must detect
/// the latter. Writes and membership checks pass through untouched.
class FaultInjectedBackend final : public CompressedBackend {
 public:
  /// `rank` scopes the injector's per-rank rules; `injector` must outlive
  /// the backend.
  FaultInjectedBackend(std::unique_ptr<CompressedBackend> inner, int rank,
                       fault::FaultInjector* injector);

  void put(const std::string& path, Blob blob) override;
  std::optional<Blob> get(const std::string& path) const override;
  bool contains(const std::string& path) const override;
  std::size_t bytes_used() const override;
  std::size_t object_count() const override;

  CompressedBackend& inner() { return *inner_; }

 private:
  std::unique_ptr<CompressedBackend> inner_;
  int rank_;
  fault::FaultInjector* injector_;
};

}  // namespace fanstore::core
