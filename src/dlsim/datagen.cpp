#include "dlsim/datagen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/rng.hpp"

namespace fanstore::dlsim {

namespace {

std::uint64_t mix_seed(DatasetKind kind, std::uint64_t index, std::uint64_t seed) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(kind);
  s ^= index * 0xC2B2AE3D27D4EB4Full;
  return splitmix64(s);
}

// --- EM micrograph (TIFF-like) --------------------------------------------
// Rows evolve from the previous row by sparse small deltas, producing the
// long byte matches at distance=width that LZ codecs find in real smooth
// micrographs. ~15% of pixels mutate per row.
Bytes gen_em_tif(std::size_t bytes, Rng& rng) {
  constexpr std::size_t kWidth = 512;
  Bytes out;
  out.reserve(bytes + kWidth);
  // Minimal TIFF header: II magic + IFD offset.
  const std::uint8_t header[8] = {'I', 'I', 42, 0, 8, 0, 0, 0};
  out.insert(out.end(), header, header + 8);
  std::vector<std::uint8_t> row(kWidth);
  for (auto& p : row) p = static_cast<std::uint8_t>(96 + rng.next_below(64));
  while (out.size() < bytes) {
    for (std::size_t x = 0; x < kWidth; ++x) {
      if (rng.next_below(100) < 15) {
        row[x] = static_cast<std::uint8_t>(row[x] + rng.next_range(-3, 3));
      }
    }
    out.insert(out.end(), row.begin(), row.end());
  }
  out.resize(bytes);
  return out;
}

// --- Tokamak sensor shot (NPY-like) ---------------------------------------
// float32 channels quantized to 1/64 steps around slowly-drifting
// baselines: the low mantissa bytes are mostly zero, exponents repeat.
Bytes gen_tokamak_npz(std::size_t bytes, Rng& rng) {
  const char* header = "\x93NUMPY\x01\x00v\x00{'descr': '<f4', 'shape': (288,)}";
  Bytes out(header, header + std::strlen(header));
  out.reserve(bytes + 64);
  // 8 channels round-robin, each a drifting baseline.
  float baselines[8];
  for (int ch = 0; ch < 8; ++ch) {
    baselines[ch] = 1.0f + 0.125f * static_cast<float>(ch) +
                    static_cast<float>(rng.next_below(16)) / 64.0f;
  }
  while (out.size() + 4 <= bytes) {
    const std::size_t ch = (out.size() / 4) % 8;
    baselines[ch] += static_cast<float>(rng.next_range(-1, 1)) / 64.0f;
    const float q = std::round(baselines[ch] * 64.0f) / 64.0f;
    std::uint8_t b[4];
    std::memcpy(b, &q, 4);
    out.insert(out.end(), b, b + 4);
  }
  out.resize(bytes);
  return out;
}

// --- Lung CT volume (NIfTI-like) -------------------------------------------
// int16 voxels, ~75% exact-zero background with an ellipsoid of smooth
// tissue values: the mostly-zero structure yields the dataset's
// characteristic 5-11x ratios.
Bytes gen_lung_nii(std::size_t bytes, Rng& rng) {
  Bytes out;
  out.reserve(bytes + 512);
  out.resize(352, 0);  // NIfTI-1 header block
  out[0] = 92;         // sizeof_hdr = 348 (LE) — token structure only
  out[1] = 1;
  if (bytes <= out.size() + 2) {
    out.resize(bytes);
    return out;
  }
  const std::size_t voxels = (bytes - out.size()) / 2;
  const std::size_t side = static_cast<std::size_t>(std::cbrt(static_cast<double>(voxels)));
  std::size_t emitted = 0;
  std::int16_t prev = 0;
  for (std::size_t z = 0; emitted < voxels; ++z) {
    for (std::size_t y = 0; y < side && emitted < voxels; ++y) {
      for (std::size_t x = 0; x < side && emitted < voxels; ++x, ++emitted) {
        const double dx = (static_cast<double>(x) / side) - 0.5;
        const double dy = (static_cast<double>(y) / side) - 0.5;
        const double dz = (static_cast<double>(z % side) / side) - 0.5;
        std::int16_t v = 0;
        if (dx * dx + dy * dy + dz * dz < 0.09) {  // tissue ellipsoid
          v = static_cast<std::int16_t>(prev + rng.next_range(-4, 4));
          prev = v;
        }
        std::uint8_t b[2];
        std::memcpy(b, &v, 2);
        out.insert(out.end(), b, b + 2);
      }
    }
  }
  out.resize(bytes);
  return out;
}

// --- Astronomy image (FITS-like) -------------------------------------------
// 2880-byte ASCII card header + float32 sky: background noise quantized to
// 48 levels plus occasional bright stars.
Bytes gen_astro_fits(std::size_t bytes, Rng& rng) {
  Bytes out;
  out.reserve(bytes + 2880);
  std::string header;
  header += "SIMPLE  =                    T / conforms to FITS standard";
  header += "BITPIX  =                  -32 / 32-bit IEEE floats";
  header += "NAXIS   =                    2";
  header.resize(2880, ' ');
  out.insert(out.end(), header.begin(), header.end());
  while (out.size() + 4 <= bytes) {
    float v;
    if (rng.next_below(1000) < 3) {
      v = 100.0f + static_cast<float>(rng.next_below(1000));  // star
    } else {
      v = static_cast<float>(rng.next_below(48)) / 16.0f;  // quantized sky
    }
    std::uint8_t b[4];
    std::memcpy(b, &v, 4);
    out.insert(out.end(), b, b + 4);
  }
  out.resize(bytes);
  return out;
}

// --- ImageNet JPEG ----------------------------------------------------------
// A plausible JFIF prologue followed by entropy-coded (i.e. random) scan
// data: already-compressed content, ratio ~ 1.0 for every lossless codec.
Bytes gen_imagenet_jpg(std::size_t bytes, Rng& rng) {
  Bytes out;
  out.reserve(bytes);
  const std::uint8_t soi[] = {0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x10, 'J', 'F',
                              'I',  'F',  0x00, 0x01, 0x01, 0x00, 0x00, 0x48};
  out.insert(out.end(), soi, soi + sizeof(soi));
  if (bytes <= out.size() + 2) {
    out.resize(bytes);
    return out;
  }
  while (out.size() < bytes - 2) {
    out.push_back(static_cast<std::uint8_t>(rng.next_u64()));
  }
  out.push_back(0xFF);
  out.push_back(0xD9);  // EOI
  out.resize(bytes);
  return out;
}

// --- Language text ----------------------------------------------------------
// Zipf-weighted word sampling with sentence structure.
Bytes gen_language_txt(std::size_t bytes, Rng& rng) {
  static const char* kWords[] = {
      "the",      "model",   "training", "data",   "neural",  "network",
      "gradient", "descent", "batch",    "epoch",  "loss",    "accuracy",
      "layer",    "tensor",  "compute",  "node",   "storage", "system",
      "file",     "cache",   "memory",   "scale",  "result",  "method",
      "approach", "show",    "figure",   "table",  "section", "experiment",
      "and",      "of",      "to",       "in",     "with",    "for",
      "is",       "that",    "we",       "this",   "as",      "on"};
  constexpr std::size_t kN = std::size(kWords);
  Bytes out;
  out.reserve(bytes + 32);
  std::size_t words_in_sentence = 0;
  while (out.size() < bytes) {
    // Zipf-ish: quadratic skew toward early words.
    const std::size_t r = rng.next_below(kN * kN);
    const std::size_t w = static_cast<std::size_t>(
        std::sqrt(static_cast<double>(r)));
    const char* word = kWords[kN - 1 - std::min(w, kN - 1)];
    out.insert(out.end(), word, word + std::strlen(word));
    if (++words_in_sentence >= 8 + rng.next_below(8)) {
      out.push_back('.');
      out.push_back(rng.next_below(5) == 0 ? '\n' : ' ');
      words_in_sentence = 0;
    } else {
      out.push_back(' ');
    }
  }
  out.resize(bytes);
  return out;
}

}  // namespace

DatasetSpec dataset_spec(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kEmTif:
      return {kind, "EM", "tif", 256 * 1024, 6, 500e9, 0.6e6, 1.6e6};
    case DatasetKind::kTokamakNpz:
      return {kind, "Tokamak", "npz", 1228, 1, 1.7e12, 0.58e6, 1.2e3};
    case DatasetKind::kLungNii:
      return {kind, "Lung", "nii", 448 * 1024, 2, 2.2e9, 1.4e3, 1.3e6};
    case DatasetKind::kAstroFits:
      return {kind, "Astro", "fits", 384 * 1024, 1, 1e12, 17.7e3, 6e6};
    case DatasetKind::kImagenetJpg:
      return {kind, "ImageNet", "jpg", 100 * 1024, 16, 140e9, 1.3e6, 100e3};
    case DatasetKind::kLanguageTxt:
      return {kind, "Language", "txt", 256 * 1024, 1, 32e6, 8, 4e6};
  }
  throw std::invalid_argument("dataset_spec: unknown kind");
}

std::vector<DatasetSpec> all_dataset_specs() {
  return {dataset_spec(DatasetKind::kEmTif),       dataset_spec(DatasetKind::kTokamakNpz),
          dataset_spec(DatasetKind::kLungNii),     dataset_spec(DatasetKind::kAstroFits),
          dataset_spec(DatasetKind::kImagenetJpg), dataset_spec(DatasetKind::kLanguageTxt)};
}

Bytes generate_file_sized(DatasetKind kind, std::uint64_t index, std::size_t bytes,
                          std::uint64_t seed) {
  Rng rng(mix_seed(kind, index, seed));
  switch (kind) {
    case DatasetKind::kEmTif: return gen_em_tif(bytes, rng);
    case DatasetKind::kTokamakNpz: return gen_tokamak_npz(bytes, rng);
    case DatasetKind::kLungNii: return gen_lung_nii(bytes, rng);
    case DatasetKind::kAstroFits: return gen_astro_fits(bytes, rng);
    case DatasetKind::kImagenetJpg: return gen_imagenet_jpg(bytes, rng);
    case DatasetKind::kLanguageTxt: return gen_language_txt(bytes, rng);
  }
  throw std::invalid_argument("generate_file_sized: unknown kind");
}

Bytes generate_file(DatasetKind kind, std::uint64_t index, std::uint64_t seed) {
  return generate_file_sized(kind, index, dataset_spec(kind).file_bytes, seed);
}

std::vector<std::string> materialize_dataset(posixfs::Vfs& fs, const std::string& root,
                                             DatasetKind kind, std::size_t num_files,
                                             std::uint64_t seed) {
  const DatasetSpec spec = dataset_spec(kind);
  std::vector<std::string> paths;
  paths.reserve(num_files);
  for (std::size_t i = 0; i < num_files; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "d%03zu/%s_%06zu.%s",
                  i % static_cast<std::size_t>(spec.num_dirs), spec.name.c_str(), i,
                  spec.extension.c_str());
    const std::string path = root + "/" + name;
    const Bytes data = generate_file(kind, i, seed);
    if (posixfs::write_file(fs, path, as_view(data)) != 0) {
      throw std::runtime_error("materialize_dataset: write failed for " + path);
    }
    paths.push_back(posixfs::normalize_path(path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace fanstore::dlsim
