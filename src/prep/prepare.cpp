#include "prep/prepare.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "format/partition.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace fanstore::prep {

namespace {

std::string part_name(const std::string& dst_root, const char* kind, std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%03zu", i);
  return dst_root + "/" + kind + "-" + buf + ".fst";
}

// Parses "auto-a,b,c" into candidate codec names; empty if not auto.
std::vector<std::string> auto_candidates(const std::string& spec) {
  if (spec.rfind("auto-", 0) != 0) return {};
  std::vector<std::string> names;
  std::stringstream ss(spec.substr(5));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  if (names.empty()) throw std::invalid_argument("prep: empty auto compressor list");
  return names;
}

format::FileRecord compress_one(const std::string& rel_path, ByteView raw,
                                const std::vector<const compress::Compressor*>& codecs,
                                std::size_t chunk_size, std::size_t inner_threads) {
  const auto& reg = compress::Registry::instance();
  format::FileRecord best;
  bool have = false;
  for (const auto* codec : codecs) {
    format::FileRecord rec = format::make_record(rel_path, *codec, reg.id_of(*codec),
                                                 raw, chunk_size, inner_threads);
    if (!have || rec.data.size() < best.data.size()) {
      best = std::move(rec);
      have = true;
    }
  }
  return best;
}

// Assigns compressed records to partitions. Round-robin follows file
// index; by-size runs greedy LPT (descending size, least-loaded bucket).
std::vector<std::size_t> assign_partitions(
    const std::vector<format::FileRecord>& records, std::size_t num_partitions,
    Placement placement) {
  std::vector<std::size_t> assignment(records.size());
  if (placement == Placement::kRoundRobin) {
    for (std::size_t i = 0; i < records.size(); ++i) assignment[i] = i % num_partitions;
    return assignment;
  }
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (records[a].data.size() != records[b].data.size()) {
      return records[a].data.size() > records[b].data.size();
    }
    return a < b;  // deterministic tie-break
  });
  std::vector<std::size_t> load(num_partitions, 0);
  for (const std::size_t i : order) {
    const std::size_t p = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[i] = p;
    load[p] += records[i].data.size();
  }
  return assignment;
}

// Builds the partitions for one file list.
std::vector<Bytes> build_partitions(
    posixfs::Vfs& src, const std::vector<std::string>& files,
    std::size_t num_partitions, const std::vector<const compress::Compressor*>& codecs,
    std::size_t chunk_size, int threads, Placement placement,
    std::vector<PartitionInfo>* infos) {
  // Compress files in parallel (the multi-threaded round-robin of §V-B);
  // records land in a dense array so partition assembly is deterministic.
  std::vector<format::FileRecord> records(files.size());
  std::vector<std::string> errors(files.size());
  // When there are fewer files than workers (huge-object datasets), the
  // spare workers compress chunks *within* each file instead of idling —
  // framed files parallelize across both axes.
  const std::size_t nthreads = threads <= 0 ? 1 : static_cast<std::size_t>(threads);
  const std::size_t inner_threads =
      files.empty() ? 1 : std::max<std::size_t>(1, nthreads / files.size());
  parallel_for(files.size(), nthreads, [&](std::size_t i) {
    const auto raw = posixfs::read_file(src, files[i]);
    if (!raw) {
      errors[i] = "unreadable file: " + files[i];
      return;
    }
    records[i] =
        compress_one(files[i], as_view(*raw), codecs, chunk_size, inner_threads);
  });
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("prep: " + e);
  }

  std::vector<format::PartitionWriter> writers(num_partitions);
  std::vector<PartitionInfo> local_infos(num_partitions);
  const auto assignment = assign_partitions(records, num_partitions, placement);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t p = assignment[i];
    local_infos[p].num_files++;
    local_infos[p].raw_bytes += records[i].stat.size;
    writers[p].add(std::move(records[i]));
  }
  std::vector<Bytes> blobs(num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    blobs[p] = writers[p].serialize();
    local_infos[p].packed_bytes = blobs[p].size();
  }
  *infos = std::move(local_infos);
  return blobs;
}

}  // namespace

std::vector<std::string> Manifest::partition_paths() const {
  std::vector<std::string> out;
  out.reserve(partitions.size());
  for (const auto& p : partitions) out.push_back(p.path);
  return out;
}

std::vector<std::string> Manifest::broadcast_paths() const {
  std::vector<std::string> out;
  out.reserve(broadcasts.size());
  for (const auto& p : broadcasts) out.push_back(p.path);
  return out;
}

std::size_t Manifest::total_raw() const {
  std::size_t n = 0;
  for (const auto& p : partitions) n += p.raw_bytes;
  for (const auto& p : broadcasts) n += p.raw_bytes;
  return n;
}

std::size_t Manifest::total_packed() const {
  std::size_t n = 0;
  for (const auto& p : partitions) n += p.packed_bytes;
  for (const auto& p : broadcasts) n += p.packed_bytes;
  return n;
}

double Manifest::ratio() const {
  const auto packed = total_packed();
  return packed == 0 ? 1.0
                     : static_cast<double>(total_raw()) / static_cast<double>(packed);
}

std::string Manifest::serialize() const {
  std::ostringstream os;
  os << "fanstore-manifest v1\n";
  for (const auto& p : partitions) {
    os << "partition " << p.path << " " << p.num_files << " " << p.raw_bytes << " "
       << p.packed_bytes << "\n";
  }
  for (const auto& p : broadcasts) {
    os << "broadcast " << p.path << " " << p.num_files << " " << p.raw_bytes << " "
       << p.packed_bytes << "\n";
  }
  return os.str();
}

Manifest Manifest::parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "fanstore-manifest v1") {
    throw std::runtime_error("manifest: bad header");
  }
  Manifest m;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    PartitionInfo info;
    ls >> kind >> info.path >> info.num_files >> info.raw_bytes >> info.packed_bytes;
    if (ls.fail()) throw std::runtime_error("manifest: bad line: " + line);
    if (kind == "partition") {
      m.partitions.push_back(std::move(info));
    } else if (kind == "broadcast") {
      m.broadcasts.push_back(std::move(info));
    } else {
      throw std::runtime_error("manifest: unknown record kind: " + kind);
    }
  }
  return m;
}

std::vector<std::string> list_files_recursive(posixfs::Vfs& fs, const std::string& root) {
  std::vector<std::string> out;
  std::vector<std::string> stack{posixfs::normalize_path(root)};
  while (!stack.empty()) {
    const std::string dir = std::move(stack.back());
    stack.pop_back();
    const int h = fs.opendir(dir);
    if (h < 0) continue;
    while (auto entry = fs.readdir(h)) {
      const std::string child = dir.empty() ? entry->name : dir + "/" + entry->name;
      if (entry->type == format::FileType::kDirectory) {
        stack.push_back(child);
      } else {
        out.push_back(child);
      }
    }
    fs.closedir(h);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Manifest prepare_dataset(posixfs::Vfs& src, const std::string& src_root,
                         posixfs::Vfs& dst, const std::string& dst_root,
                         const PrepOptions& options) {
  if (options.num_partitions <= 0) {
    throw std::invalid_argument("prep: num_partitions must be positive");
  }
  const auto& reg = compress::Registry::instance();
  std::vector<const compress::Compressor*> codecs;
  for (const auto& name : auto_candidates(options.compressor)) {
    const auto* c = reg.by_name(name);
    if (c == nullptr) throw std::invalid_argument("prep: unknown compressor " + name);
    codecs.push_back(c);
  }
  if (codecs.empty()) {
    const auto* c = reg.by_name(options.compressor);
    if (c == nullptr) {
      throw std::invalid_argument("prep: unknown compressor " + options.compressor);
    }
    codecs.push_back(c);
  }
  if (options.chunk_size != 0) {
    (void)compress::chunked_id(0, options.chunk_size);  // rejects a bad size
  }

  // Partition-eligible files exclude broadcast subtrees.
  const std::string norm_root = posixfs::normalize_path(src_root);
  std::vector<std::string> all = list_files_recursive(src, norm_root);
  std::vector<std::string> scattered;
  std::vector<std::vector<std::string>> broadcast_sets(options.broadcast_dirs.size());
  for (auto& f : all) {
    bool is_broadcast = false;
    for (std::size_t b = 0; b < options.broadcast_dirs.size(); ++b) {
      std::string bdir = posixfs::normalize_path(options.broadcast_dirs[b]);
      if (!norm_root.empty() && bdir.rfind(norm_root + "/", 0) != 0) {
        bdir = norm_root + "/" + bdir;  // allow root-relative broadcast dirs
      }
      if (f.rfind(bdir + "/", 0) == 0) {
        broadcast_sets[b].push_back(f);
        is_broadcast = true;
        break;
      }
    }
    if (!is_broadcast) scattered.push_back(f);
  }
  if (scattered.empty() && broadcast_sets.empty()) {
    throw std::runtime_error("prep: no input files under " + src_root);
  }

  Manifest manifest;
  std::vector<PartitionInfo> infos;
  const auto blobs =
      build_partitions(src, scattered, static_cast<std::size_t>(options.num_partitions),
                       codecs, options.chunk_size, options.threads,
                       options.placement, &infos);
  for (std::size_t p = 0; p < blobs.size(); ++p) {
    infos[p].path = part_name(dst_root, "part", p);
    const int rc = posixfs::write_file(dst, infos[p].path, as_view(blobs[p]));
    if (rc != 0) throw std::runtime_error("prep: cannot write " + infos[p].path);
    manifest.partitions.push_back(infos[p]);
  }
  for (std::size_t b = 0; b < broadcast_sets.size(); ++b) {
    if (broadcast_sets[b].empty()) continue;
    std::vector<PartitionInfo> binfo;
    const auto bblobs = build_partitions(src, broadcast_sets[b], 1, codecs,
                                         options.chunk_size, options.threads,
                                         Placement::kRoundRobin, &binfo);
    binfo[0].path = part_name(dst_root, "bcast", b);
    const int rc = posixfs::write_file(dst, binfo[0].path, as_view(bblobs[0]));
    if (rc != 0) throw std::runtime_error("prep: cannot write " + binfo[0].path);
    manifest.broadcasts.push_back(binfo[0]);
  }

  const std::string mpath = dst_root + "/manifest.txt";
  const std::string text = manifest.serialize();
  if (posixfs::write_file(dst, mpath, as_view(text)) != 0) {
    throw std::runtime_error("prep: cannot write manifest");
  }
  return manifest;
}

Manifest load_manifest(posixfs::Vfs& dst, const std::string& dst_root) {
  const auto raw = posixfs::read_file(dst, dst_root + "/manifest.txt");
  if (!raw) throw std::runtime_error("prep: missing manifest under " + dst_root);
  return Manifest::parse(to_string(as_view(*raw)));
}

}  // namespace fanstore::prep
