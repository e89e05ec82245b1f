#include "posixfs/mem_vfs.hpp"

#include <algorithm>

#include "util/crc32.hpp"

namespace fanstore::posixfs {

bool MemVfs::dir_exists_locked(const std::string& path) const {
  if (path.empty()) return true;  // root
  if (dirs_.count(path) > 0) return true;
  // Implicit directory: any file strictly below it.
  const std::string prefix = path + "/";
  const auto it = files_.lower_bound(prefix);
  return it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
}

int MemVfs::open(std::string_view path_in, OpenMode mode) {
  const std::string path = normalize_path(path_in);
  if (path.empty()) return -EINVAL;
  sync::MutexLock lk(mu_);
  if (mode == OpenMode::kRead) {
    const auto it = files_.find(path);
    if (it == files_.end()) return -ENOENT;
    const int fd = next_fd_++;
    open_files_[fd] = OpenFile{path, mode, it->second.data, 0};
    return fd;
  }
  // Write: create/truncate into a private buffer, published on close.
  const int fd = next_fd_++;
  open_files_[fd] = OpenFile{path, mode, std::make_shared<Bytes>(), 0};
  return fd;
}

int MemVfs::close(int fd) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  if (it->second.mode == OpenMode::kWrite) {
    File f;
    f.data = it->second.data;
    f.mtime_ns = clock_ns_++;
    files_[it->second.path] = std::move(f);
  }
  open_files_.erase(it);
  return 0;
}

std::int64_t MemVfs::read(int fd, MutByteView buf) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  OpenFile& of = it->second;
  if (of.mode != OpenMode::kRead) return -EBADF;
  const auto& data = *of.data;
  if (of.offset >= static_cast<std::int64_t>(data.size())) return 0;
  const std::size_t n =
      std::min(buf.size(), data.size() - static_cast<std::size_t>(of.offset));
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(of.offset), n, buf.begin());
  of.offset += static_cast<std::int64_t>(n);
  return static_cast<std::int64_t>(n);
}

std::int64_t MemVfs::write(int fd, ByteView buf) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  OpenFile& of = it->second;
  if (of.mode != OpenMode::kWrite) return -EBADF;
  Bytes& data = *of.data;
  const auto end = static_cast<std::size_t>(of.offset) + buf.size();
  if (end > data.size()) data.resize(end);
  std::copy(buf.begin(), buf.end(),
            data.begin() + static_cast<std::ptrdiff_t>(of.offset));
  of.offset += static_cast<std::int64_t>(buf.size());
  return static_cast<std::int64_t>(buf.size());
}

std::int64_t MemVfs::lseek(int fd, std::int64_t offset, Whence whence) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  OpenFile& of = it->second;
  return seek_cursor(&of.offset, offset, whence, of.data->size());
}

int MemVfs::stat(std::string_view path_in, format::FileStat* out) {
  const std::string path = normalize_path(path_in);
  sync::MutexLock lk(mu_);
  const auto it = files_.find(path);
  if (it != files_.end()) {
    *out = format::FileStat{};
    out->size = it->second.data->size();
    out->type = format::FileType::kRegular;
    out->mtime_ns = it->second.mtime_ns;
    return 0;
  }
  if (dir_exists_locked(path)) {
    *out = format::FileStat{};
    out->type = format::FileType::kDirectory;
    out->mode = 0755;
    return 0;
  }
  return -ENOENT;
}

int MemVfs::opendir(std::string_view path_in) {
  const std::string path = normalize_path(path_in);
  sync::MutexLock lk(mu_);
  if (!dir_exists_locked(path)) return -ENOENT;
  // Collect immediate children: explicit dirs, implicit dirs, files.
  std::set<std::string> child_dirs;
  std::vector<Dirent> entries;
  const std::string prefix = path.empty() ? "" : path + "/";
  for (const auto& [p, f] : files_) {
    if (p.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string rest = p.substr(prefix.size());
    const auto slash = rest.find('/');
    if (slash == std::string::npos) {
      entries.push_back(Dirent{rest, format::FileType::kRegular});
    } else {
      child_dirs.insert(rest.substr(0, slash));
    }
  }
  for (const auto& d : dirs_) {
    if (d.compare(0, prefix.size(), prefix) != 0 || d == path) continue;
    const std::string rest = d.substr(prefix.size());
    if (rest.empty()) continue;
    const auto slash = rest.find('/');
    child_dirs.insert(slash == std::string::npos ? rest : rest.substr(0, slash));
  }
  for (const auto& d : child_dirs) {
    entries.push_back(Dirent{d, format::FileType::kDirectory});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Dirent& a, const Dirent& b) { return a.name < b.name; });
  const int h = next_dir_++;
  open_dirs_[h] = OpenDir{std::move(entries), 0};
  return h;
}

std::optional<Dirent> MemVfs::readdir(int dir_handle) {
  sync::MutexLock lk(mu_);
  const auto it = open_dirs_.find(dir_handle);
  if (it == open_dirs_.end()) return std::nullopt;
  if (it->second.next >= it->second.entries.size()) return std::nullopt;
  return it->second.entries[it->second.next++];
}

int MemVfs::closedir(int dir_handle) {
  sync::MutexLock lk(mu_);
  return open_dirs_.erase(dir_handle) > 0 ? 0 : -EBADF;
}

void MemVfs::mkdir(std::string_view path) {
  const std::string p = normalize_path(path);
  if (p.empty()) return;
  sync::MutexLock lk(mu_);
  dirs_.insert(p);
}

std::optional<Bytes> MemVfs::slurp(std::string_view path) const {
  sync::MutexLock lk(mu_);
  const auto it = files_.find(normalize_path(path));
  if (it == files_.end()) return std::nullopt;
  return *it->second.data;
}

std::vector<std::string> MemVfs::list_files(std::string_view prefix_in) const {
  const std::string prefix = normalize_path(prefix_in);
  const std::string needle = prefix.empty() ? "" : prefix + "/";
  sync::MutexLock lk(mu_);
  std::vector<std::string> out;
  for (const auto& [p, f] : files_) {
    if (needle.empty() || p.compare(0, needle.size(), needle) == 0) out.push_back(p);
  }
  return out;
}

std::size_t MemVfs::file_count() const {
  sync::MutexLock lk(mu_);
  return files_.size();
}

std::size_t MemVfs::total_bytes() const {
  sync::MutexLock lk(mu_);
  std::size_t n = 0;
  for (const auto& [p, f] : files_) n += f.data->size();
  return n;
}

}  // namespace fanstore::posixfs
