#include "core/cached_file.hpp"

#include <algorithm>
#include <cstring>

#include "util/thread_pool.hpp"

namespace fanstore::core {

CachedFile::CachedFile(SharedBytes plain)
    : stored_(std::move(plain)), plain_(&stored_.bytes()) {}

CachedFile::CachedFile(SharedBytes compressed, compress::CompressorId chunked_id,
                       std::size_t original_size)
    : plain_(&decoded_), compressed_(std::move(compressed)) {
  frame_ = compress::ChunkedFrame::parse(as_view(compressed_), original_size);
  if (frame_.inner_id() != compress::chunked_inner_id(chunked_id) ||
      frame_.chunk_size() != compress::chunked_chunk_size(chunked_id)) {
    throw compress::CorruptDataError(
        "chunked: frame does not match recorded compressor id");
  }
  chunk_count_ = frame_.chunk_count();
  verified_.store(chunk_count_ == 0, std::memory_order_relaxed);
  decoded_.resize(original_size);
  states_ = std::make_unique<std::atomic<std::uint8_t>[]>(chunk_count_);
  for (std::size_t i = 0; i < chunk_count_; ++i) {
    states_[i].store(kEmpty, std::memory_order_relaxed);
  }
}

bool CachedFile::ensure_chunk(std::size_t i) {
  // Fast path: already decoded and published.
  if (states_[i].load(std::memory_order_acquire) == kReady) return false;
  {
    sync::MutexLock lk(mu_);
    for (;;) {
      const std::uint8_t st = states_[i].load(std::memory_order_acquire);
      if (st == kReady) return false;
      if (st == kEmpty) {
        states_[i].store(kDecoding, std::memory_order_relaxed);
        break;  // we own the decode
      }
      // Another thread is decoding this chunk: wait for it to settle
      // (ready, or back to empty after a failed decode we then retry).
      decode_done_.wait(mu_, [&]() NO_THREAD_SAFETY_ANALYSIS {
        return states_[i].load(std::memory_order_acquire) != kDecoding;
      });
    }
  }
  // Decode with no lock held; distinct chunks write disjoint decoded_ ranges.
  try {
    frame_.decode_chunk_into(
        i, MutByteView(decoded_.data() + frame_.chunk_begin(i),
                       frame_.chunk_plain_size(i)));
  } catch (...) {
    sync::MutexLock lk(mu_);
    states_[i].store(kEmpty, std::memory_order_release);
    decode_done_.notify_all();
    throw;
  }
  {
    sync::MutexLock lk(mu_);
    states_[i].store(kReady, std::memory_order_release);
    ready_chunks_.fetch_add(1, std::memory_order_acq_rel);
    decode_done_.notify_all();
  }
  return true;
}

void CachedFile::read_range(std::size_t offset, MutByteView out,
                            DecodeStats* stats) {
  if (out.empty()) return;
  if (!fully_materialized()) {
    const std::size_t cs = frame_.chunk_size();
    const std::size_t first = offset / cs;
    const std::size_t last = (offset + out.size() - 1) / cs;
    for (std::size_t i = first; i <= last; ++i) {
      if (ensure_chunk(i) && stats != nullptr) {
        stats->chunks_decoded++;
        stats->bytes_decoded += frame_.chunk_plain_size(i);
      }
    }
  }
  std::memcpy(out.data(), plain_->data() + offset, out.size());
}

void CachedFile::materialize_all(std::size_t threads, DecodeStats* stats) {
  if (fully_materialized()) return;
  std::vector<std::size_t> missing;
  missing.reserve(chunk_count_);
  for (std::size_t i = 0; i < chunk_count_; ++i) {
    if (states_[i].load(std::memory_order_acquire) != kReady) {
      missing.push_back(i);
    }
  }
  std::atomic<std::size_t> decoded{0};
  std::atomic<std::size_t> bytes{0};
  parallel_for(missing.size(), threads, [&](std::size_t k) {
    const std::size_t i = missing[k];
    if (ensure_chunk(i)) {
      decoded.fetch_add(1, std::memory_order_relaxed);
      bytes.fetch_add(frame_.chunk_plain_size(i), std::memory_order_relaxed);
    }
  });
  if (stats != nullptr) {
    stats->chunks_decoded += decoded.load(std::memory_order_relaxed);
    stats->bytes_decoded += bytes.load(std::memory_order_relaxed);
  }
}

std::size_t CachedFile::charge_bytes() const {
  if (chunk_count_ == 0) return plain_->size();
  const std::size_t ready = ready_chunks_.load(std::memory_order_acquire);
  // Materialized plain bytes: full chunks plus a possibly-short tail. Using
  // ready * chunk_size clamped to size() over-counts only when the tail
  // chunk is ready but an interior one is not — a transient, conservative
  // bound.
  const std::size_t plain_bytes =
      std::min(decoded_.size(), ready * frame_.chunk_size());
  return compressed_.size() + plain_bytes;
}

}  // namespace fanstore::core
